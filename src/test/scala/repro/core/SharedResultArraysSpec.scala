package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelper.forAllSeeded
import repro.meta._
import repro.sim.{MemPartition, MemTable}
import PExpr._

/** Pruning results over one [[TableStats]] share its position arrays: every
  * query's `classify` classifies over the same all-partitions array, and every
  * query without a predicate gets the same non-empty-partitions array as its
  * scan and fully-matching set. These properties check that the shared
  * arrays give the results a fresh computation gives, also after they have
  * gone through the pruners that consume them, and that `fullyIndices`,
  * built on first read, equals its eager definition.
  */
class SharedResultArraysSpec extends AnyFunSuite {

  import Scalar._

  private val schema = IndexedSeq("k", "v")

  /** A partition of 0–8 rows whose `k` is all NULL, partly NULL or never. */
  private def genPartition(id: Int): Gen[MemPartition] = for {
    rows <- Gen.frequency(1 -> Gen.const(0), 5 -> Gen.chooseNum(1, 8))
    nulls <- Gen.oneOf(0.0, 0.3, 1.0)
    ks <- Gen.listOfN(rows, Gen.zip(Gen.prob(nulls), Gen.chooseNum(-20L, 20L)))
    vs <- Gen.listOfN(rows, Gen.chooseNum(0L, 100L))
  } yield MemPartition.of(id, schema, ks.zip(vs).map { case ((isNull, k), v) =>
    Array[Scalar](if (isNull) null else LongV(k), LongV(v))
  }.toArray)

  private val genTable: Gen[MemTable] = for {
    n <- Gen.chooseNum(0, 20)
    parts <- Gen.sequence[Vector[MemPartition], MemPartition]((0 until n).map(genPartition))
  } yield new MemTable("t", schema, parts)

  private val genPred: Gen[PExpr] = Gen.oneOf(
    for {
      op <- Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)
      v <- Gen.chooseNum(-20L, 20L)
    } yield Cmp(op, Col("k"), Lit(LongV(v))),
    Gen.const(IsNull(Col("k"))),
    Gen.const(IsNotNull(Col("k"))))

  private val genCase = for {
    t <- genTable
    pred <- genPred
    k <- Gen.chooseNum(0, 12)
    desc <- Gen.prob(0.5)
    keys <- Gen.listOf(Gen.chooseNum(-20L, 20L))
    budget <- Gen.oneOf(1, 2, 64, Int.MaxValue)
  } yield (t, pred, k, desc, keys, budget)

  /** The classes of `r`'s partitions, with their positions. */
  private def classes(r: FilterPruneResult): Seq[(Int, MatchClass)] = r.partitions.map(c => (c.meta.id, c.cls))

  /** Every pruner that reads a result's arrays, over `r`'s scan set. */
  private def consume(t: MemTable, r: FilterPruneResult, k: Int, desc: Boolean,
                      keys: Seq[Long], budget: Int): Unit = {
    LimitPruner.prune(r, k.toLong, shapeSupported = true)
    LimitPruner.prune(r, k.toLong, shapeSupported = false)
    TopKPruner.run(t.stats, r.scanIndices, t.partition, r, TopKPruner.TopKQuery("k", k, desc), null)
    JoinPruner.pruneProbe(t.stats, r.scanIndices, "k", JoinPruner.summarizeLongs(keys.toArray, budget))
  }

  test("property: classify over the shared positions equals classifyAt over fresh ones, class for class") {
    forAllSeeded(genCase, n = 300) { case (t, pred, _, _, _, _) =>
      val n = t.numPartitions
      val shared = FilterPruner.classify(t.stats, pred)
      val fresh = FilterPruner.classifyAt(t.stats, pred, Array.range(0, n))
      assert(classes(shared) == classes(fresh), s"$pred")
      assert(shared.scanIndices.toSeq == fresh.scanIndices.toSeq)
      assert(shared.fullyIndices.toSeq == fresh.fullyIndices.toSeq)
      assert(shared.total == n && fresh.total == n)
    }
  }

  test("property: noPredicate is unchanged after its arrays went through LIMIT, top-k and join pruning") {
    forAllSeeded(genCase, n = 300) { case (t, _, k, desc, keys, budget) =>
      val nonEmpty = t.partitions.indices.filter(t.partition(_).rowCount > 0)
      val first = FilterPruner.noPredicate(t.stats)
      consume(t, first, k, desc, keys, budget)
      val again = FilterPruner.noPredicate(t.stats)
      assert(again.scanIndices eq first.scanIndices, "the scan set is shared")
      Seq(first, again).foreach { r =>
        assert(r.scanIndices.toSeq == nonEmpty)
        assert(r.fullyIndices.toSeq == nonEmpty)
        assert(classes(r) == t.partitions.indices.map { i =>
          (i, if (t.partition(i).rowCount == 0) MatchClass.NotMatching else MatchClass.FullyMatching)
        })
        assert(r.total == t.numPartitions && r.scanCount == nonEmpty.size)
      }
    }
  }

  test("property: fullyIndices read late equals its eager value") {
    forAllSeeded(genCase, n = 300) { case (t, pred, k, desc, keys, budget) =>
      val late = FilterPruner.classify(t.stats, pred)
      // Other queries over the same stats run before `late` is read.
      consume(t, FilterPruner.classify(t.stats, pred), k, desc, keys, budget)
      consume(t, FilterPruner.noPredicate(t.stats), k, desc, keys, budget)
      val eager = FilterPruner.classifyAt(t.stats, pred, Array.range(0, t.numPartitions))
      val eagerFully = eager.fullyIndices.toSeq
      assert(late.fullyIndices.toSeq == eagerFully, s"$pred")
      assert(late.fullyIndices.toSeq == classes(eager).collect { case (i, MatchClass.FullyMatching) => i })
    }
  }
}
