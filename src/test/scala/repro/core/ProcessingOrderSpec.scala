package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.meta.{ColumnStats, PartitionMeta, Scalar, TableStats}

/** The §5.3 processing order ([[TopKPruner.processingOrder]]) is exactly the
  * order of a stable sort by the boundary-potential comparator over the
  * partition records, which both execution paths used before it.
  */
class ProcessingOrderSpec extends AnyFunSuite {

  import Scalar._

  /** The comparator sort the index sort replaces. */
  private def recordOrder(metas: IndexedSeq[PartitionMeta], indices: Array[Int],
                          col: String, desc: Boolean): Seq[Int] = {
    def potential(i: Int): Option[Scalar] = metas(i).col(col).flatMap(s => if (desc) s.max else s.min)
    def better(a: Scalar, b: Scalar) = Scalar.compare(a, b).exists(c => if (desc) c > 0 else c < 0)
    indices.toSeq.sortWith { (x, y) =>
      (potential(x), potential(y)) match {
        case (Some(a), Some(b)) => better(a, b)
        case (Some(_), None)    => true
        case _                  => false
      }
    }
  }

  // Small domains, so that ties are common.
  private val longs: Gen[Scalar] = Gen.choose(-3L, 3L).map(LongV(_))
  private val doubles: Gen[Scalar] =
    Gen.oneOf(Gen.choose(-3, 3).map(d => DoubleV(d / 2.0)), Gen.oneOf(-0.0, 0.0, Double.NaN).map(DoubleV(_)))
  private val families: Seq[(String, Gen[Scalar])] = Seq(
    "long" -> longs,
    "double" -> doubles,
    "long/double" -> Gen.oneOf(longs, doubles),
    "date" -> Gen.choose(-3, 3).map(DateV(_)),
    "string" -> Gen.oneOf("", "a", "ab", "b").map(StringV(_)))

  /** A partition whose order column `x` has a range, only NULLs, no rows, or is absent. */
  private def genMeta(id: Int, values: Gen[Scalar]): Gen[PartitionMeta] = Gen.frequency(
    6 -> (for { a <- values; b <- values } yield {
      val (lo, hi) = if (Scalar.compare(a, b).exists(_ > 0)) (b, a) else (a, b)
      PartitionMeta(id, 10, Map("x" -> ColumnStats(Some(lo), Some(hi), 0)))
    }),
    1 -> Gen.const(PartitionMeta(id, 10, Map("x" -> ColumnStats(None, None, 10)))),
    1 -> Gen.const(PartitionMeta(id, 0, Map("x" -> ColumnStats(None, None, 0)))),
    1 -> Gen.const(PartitionMeta(id, 10, Map.empty[String, ColumnStats])))

  for ((family, values) <- families; desc <- Seq(true, false)) {
    test(s"property: index sort equals the comparator sort ($family, desc=$desc)") {
      val gen = for {
        n <- Gen.choose(0, 40)
        metas <- Gen.sequence[Vector[PartitionMeta], PartitionMeta]((0 until n).map(genMeta(_, values)))
        picked <- Gen.pick(n min 30, 0 until n)
        seed <- Gen.long
      } yield (metas, new scala.util.Random(seed).shuffle(picked.toVector).toArray)
      forAllSeeded(gen, n = 300) { case (metas, indices) =>
        val got = TopKPruner.processingOrder(TableStats.of(metas), indices, "x", desc)
        assert(got.toSeq == recordOrder(metas, indices, "x", desc))
      }
    }
  }

  test("a column absent from every partition keeps the given order") {
    val metas = Vector.tabulate(5)(i => PartitionMeta(i, 10, Map.empty[String, ColumnStats]))
    val indices = Array(3, 1, 4, 0, 2)
    assert(TopKPruner.processingOrder(TableStats.of(metas), indices, "x", desc = true).toSeq == indices.toSeq)
  }
}
