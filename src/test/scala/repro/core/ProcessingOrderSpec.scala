package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.meta.{ColumnStats, PartitionMeta, Scalar, TableStats}

/** The §5.3 processing order ([[TopKPruner.processingOrder]]) is exactly the
  * order of a stable sort by the boundary-potential comparator over the
  * partition records, which both execution paths used before it; and the
  * index forms of the §5.4 upfront boundary and of the boundary test (a
  * partition's [[TopKPruner.best]] value against [[BoundaryHeap.shouldSkip]])
  * equal the record forms they replace.
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

  // ---- top-k metadata by index ----------------------------------------------

  /** The record form of the boundary test: may a partition hold a row not
    * strictly worse than `boundary`?
    */
  private def recordMayReach(meta: PartitionMeta, q: TopKPruner.TopKQuery, boundary: Scalar): Boolean =
    recordPotential(meta, q).exists(best => !Scalar.compare(boundary, best).exists(c => if (q.desc) c > 0 else c < 0))

  private def recordPotential(meta: PartitionMeta, q: TopKPruner.TopKQuery): Option[Scalar] =
    meta.col(q.orderCol).flatMap(s => if (q.desc) s.max else s.min)

  /** The record form of `TopKPruner.upfrontBoundary` that the index form replaces. */
  private def recordUpfrontBoundary(fullyMatching: Seq[PartitionMeta], q: TopKPruner.TopKQuery): Option[Scalar] = {
    val full = fullyMatching.filter(_.rowCount > 0)
    if (full.isEmpty || q.k <= 0) return None
    val sign = if (q.desc) 1 else -1
    def betterOf(a: Scalar, b: Scalar): Scalar =
      if (Scalar.compare(a, b).exists(c => c * sign > 0)) a else b
    val extremes = full.flatMap(m => recordPotential(m, q))
    val cand1 = if (extremes.size >= q.k)
      Some(extremes.sortWith((a, b) => Scalar.compare(a, b).exists(c => c * sign > 0))(q.k - 1))
    else None
    val withMin = full.flatMap { m =>
      m.col(q.orderCol).flatMap { s =>
        val opposite = if (q.desc) s.min else s.max
        val nonNull = m.rowCount - s.nullCount
        opposite.filter(_ => nonNull > 0).map(v => (v, nonNull))
      }
    }.sortWith((a, b) => Scalar.compare(a._1, b._1).exists(c => c * sign > 0))
    var acc = 0L
    var cand2: Option[Scalar] = None
    val it = withMin.iterator
    while (cand2.isEmpty && it.hasNext) {
      val (v, n) = it.next(); acc += n
      if (acc >= q.k) cand2 = Some(v)
    }
    (cand1, cand2) match {
      case (Some(a), Some(b)) => Some(betterOf(a, b))
      case (a, b)             => a.orElse(b)
    }
  }

  /** A value with its exact double bits, so -0.0 differs from 0.0. */
  private def canon(s: Option[Scalar]): Any = s.map {
    case DoubleV(d) => ("double", java.lang.Double.doubleToRawLongBits(d))
    case other      => other
  }

  /** Like [[genMeta]], with row and null counts that vary, so that the
    * cumulative non-null count of the second candidate crosses k anywhere.
    */
  private def genCountedMeta(id: Int, values: Gen[Scalar]): Gen[PartitionMeta] = Gen.frequency(
    6 -> (for { a <- values; b <- values; rows <- Gen.choose(1, 6); nulls <- Gen.choose(0, 2) } yield {
      val (lo, hi) = if (Scalar.compare(a, b).exists(_ > 0)) (b, a) else (a, b)
      PartitionMeta(id, rows.toLong, Map("x" -> ColumnStats(Some(lo), Some(hi), math.min(nulls, rows - 1).toLong)))
    }),
    1 -> Gen.choose(1, 4).map(n => PartitionMeta(id, n.toLong, Map("x" -> ColumnStats(None, None, n.toLong)))),
    1 -> Gen.const(PartitionMeta(id, 0, Map("x" -> ColumnStats(None, None, 0)))),
    1 -> Gen.const(PartitionMeta(id, 3, Map.empty[String, ColumnStats])))

  for ((family, values) <- families :+ ("all-NULL" -> Gen.const[Scalar](null)); desc <- Seq(true, false)) {
    test(s"property: index forms of upfrontBoundary and mayReach equal the record forms ($family, desc=$desc)") {
      val metaValues = if (family == "all-NULL") longs else values
      val gen = for {
        n <- Gen.choose(0, 30)
        metas <- Gen.sequence[Vector[PartitionMeta], PartitionMeta]((0 until n).map { id =>
          if (family == "all-NULL") Gen.choose(0, 3).map(r => PartitionMeta(id, r.toLong, Map("x" -> ColumnStats(None, None, r.toLong))))
          else genCountedMeta(id, metaValues)
        })
        picked <- Gen.pick(n min 20, 0 until n)
        seed <- Gen.long
        k <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 12), 1 -> Gen.const(1000))
        boundary <- Gen.oneOf(metaValues, Gen.oneOf(longs, doubles))
      } yield (metas, new scala.util.Random(seed).shuffle(picked.toVector).toArray, k, boundary)
      forAllSeeded(gen, n = 300) { case (metas, fully, k, boundary) =>
        val stats = TableStats.of(metas)
        val q = TopKPruner.TopKQuery("x", k, desc)
        val want = recordUpfrontBoundary(fully.toSeq.map(metas), q)
        assert(canon(TopKPruner.upfrontBoundary(stats, fully, q)) == canon(want), s"fully=${fully.toSeq.map(metas)} k=$k")
        assert(canon(TopKPruner.upfrontBoundary(fully.toSeq.map(metas), q)) == canon(want))
        val heap = new BoundaryHeap(k, desc, boundary)
        def mayReach(stats: TableStats, i: Int) = !heap.shouldSkip(TopKPruner.best(stats.column("x"), i, desc))
        metas.indices.foreach { i =>
          assert(mayReach(stats, i) == recordMayReach(metas(i), q, boundary), s"${metas(i)} against $boundary")
          assert(mayReach(TableStats.of(Vector(metas(i))), 0) == recordMayReach(metas(i), q, boundary))
        }
      }
    }
  }
}
