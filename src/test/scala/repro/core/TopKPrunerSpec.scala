package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestTables
import repro.meta.Scalar
import repro.sim.MemTable
import PExpr._
import TopKPruner._

class TopKPrunerSpec extends AnyFunSuite {

  import Scalar._

  private def bruteForceTopK(t: repro.sim.MemTable, col: String, k: Int, desc: Boolean,
                             pred: Option[PExpr]): Seq[Long] = {
    val vals = for {
      p <- t.partitions
      i <- 0 until p.rowCount
      row = p.lookupAt(i)
      if pred.forall(PExprEval.passes(_, row))
      v <- row(col).collect { case LongV(x) => x }
    } yield v
    val sorted = if (desc) vals.sorted(Ordering[Long].reverse) else vals.sorted
    sorted.take(k)
  }

  private def values(r: TopKResult): Seq[Long] =
    r.rows.flatMap(_.orderValue).map { case LongV(v) => v; case o => fail(o.toString) }

  private def run(t: repro.sim.MemTable, k: Int, desc: Boolean = true,
                  pred: Option[PExpr] = None,
                  strategy: OrderStrategy = OrderStrategy.SortByBoundaryPotential,
                  upfront: Boolean = true): TopKResult = {
    val filtered = FilterPruner.classifyOpt(t.metas, pred)
    val scanData = filtered.scanSet.map(m => t.partition(m.id))
    TopKPruner.run(scanData, filtered,
      TopKQuery("v", k, desc, pred, strategy = strategy, upfrontInit = upfront))
  }

  for (layoutName <- Seq("sorted", "random");
       desc <- Seq(true, false);
       k <- Seq(1, 5, 50)) {
    test(s"top-$k correctness ($layoutName layout, desc=$desc) matches brute force") {
      val layout = if (layoutName == "sorted") MemTable.Layout.Sorted("v")
                   else MemTable.Layout.Random(3)
      val t = TestTables.table("t", 2000, 20, layout)
      val r = run(t, k, desc)
      assert(values(r) == bruteForceTopK(t, "v", k, desc, None))
    }
  }

  test("top-k with predicate matches brute force") {
    val t = TestTables.table("t", 2000, 20, MemTable.Layout.Sorted("v"))
    val pred = Some(Cmp(CmpOp.Lt, Col("v"), lit(500000L)): PExpr)
    val r = run(t, 10, desc = true, pred)
    assert(values(r) == bruteForceTopK(t, "v", 10, desc = true, pred))
  }

  test("sorted layout: DESC top-k scans only one partition") {
    val t = TestTables.table("t", 2000, 20, MemTable.Layout.Sorted("v"))
    val r = run(t, 5)
    assert(r.partitionsScanned == 1)
    assert(r.partitionsSkipped == 19)
    assert(r.pruningRatio > 0.9)
  }

  test("random layout with random order prunes less than sorted processing order") {
    val t = TestTables.table("t", 5000, 50, MemTable.Layout.Random(11))
    val sortedOrder = run(t, 5, strategy = OrderStrategy.SortByBoundaryPotential, upfront = false)
    val randomOrder = run(t, 5, strategy = OrderStrategy.RandomOrder(99), upfront = false)
    // Figure 8's claim: sorting the processing order improves the ratio.
    assert(sortedOrder.pruningRatio >= randomOrder.pruningRatio)
    assert(values(sortedOrder) == values(randomOrder)) // same result either way
  }

  test("upfront boundary initialization enables pruning from the first partition") {
    val t = TestTables.table("t", 2000, 20, MemTable.Layout.Sorted("v"))
    val r = run(t, 5, upfront = true)
    assert(r.initialBoundary.isDefined)
    // With no predicate every partition is fully matching; the boundary is at
    // least the k-th largest partition max.
    val maxes = t.metas.flatMap(_.col("v").flatMap(_.max)).collect { case LongV(v) => v }
    assert(r.initialBoundary.exists { case LongV(b) => b >= maxes.sorted.reverse(4); case _ => false })
  }

  test("upfront boundary: k-th max candidate vs cumulative-min candidate (stricter wins)") {
    val filtered = FilterPruner.noPredicate(TestTables.table("t", 2000, 20,
      MemTable.Layout.Sorted("v")).metas)
    val q = TopKQuery("v", 5, desc = true)
    val b = TopKPruner.upfrontBoundary(filtered.fullyMatching, q)
    assert(b.isDefined)
    // For a sorted table the cumulative-min candidate (largest partition's
    // min) is much stricter than the 5th-largest max.
    val top = filtered.fullyMatching.maxBy(_.col("v").flatMap(_.max).collect { case LongV(v) => v }.getOrElse(Long.MinValue))
    val topMin = top.col("v").flatMap(_.min).collect { case LongV(v) => v }.get
    assert(b.exists { case LongV(x) => x >= topMin; case _ => false })
  }

  test("nulls in the order column: NULLS LAST backfill when fewer than k non-null") {
    import repro.meta.Scalar._
    val schema = IndexedSeq("id", "v")
    val rows = (0 until 20).map { i =>
      Array[Scalar](LongV(i.toLong), if (i < 3) LongV(i * 10L) else null)
    }
    val t = MemTable.build("t", schema, rows, 4, MemTable.Layout.Random(1))
    val filtered = FilterPruner.noPredicate(t.metas)
    val r = TopKPruner.run(t.partitions, filtered, TopKQuery("v", 5, desc = true, upfrontInit = false))
    val nonNull = r.rows.flatMap(_.orderValue)
    assert(nonNull.map { case LongV(v) => v; case _ => -1 } == Seq(20L, 10L, 0L))
    assert(r.rows.size == 5) // two null rows backfill
  }

  test("k larger than table returns everything") {
    val t = TestTables.table("t", 50, 5, MemTable.Layout.Random(5))
    val r = run(t, 100)
    assert(r.rows.size == 50)
    assert(r.partitionsSkipped == 0)
  }

  test("rowQualifier restricts heap membership (join shape 7b)") {
    val t = TestTables.table("t", 1000, 10, MemTable.Layout.Sorted("v"))
    val allowed: PExprEval.RowLookup => Boolean =
      row => row("id").exists { case LongV(i) => i % 2 == 0; case _ => false }
    val filtered = FilterPruner.noPredicate(t.stats)
    val r = TopKPruner.run(t.stats, Array.range(0, t.numPartitions), t.partition, filtered,
      // No upfront init: the qualifier invalidates fully-matching row counts.
      TopKQuery("v", 10, desc = true, upfrontInit = false),
      p => r => allowed(p.lookupAt(r)))
    val expected = (for {
      p <- t.partitions; i <- 0 until p.rowCount
      row = p.lookupAt(i)
      if allowed(row)
      v <- row("v").collect { case LongV(x) => x }
    } yield v).sorted(Ordering[Long].reverse).take(10)
    assert(values(r) == expected)
  }

  test("deterministic under fixed random seed") {
    val t = TestTables.table("t", 1000, 10, MemTable.Layout.Random(7))
    val a = run(t, 5, strategy = OrderStrategy.RandomOrder(123))
    val b = run(t, 5, strategy = OrderStrategy.RandomOrder(123))
    assert(a.partitionsScanned == b.partitionsScanned)
    assert(values(a) == values(b))
  }

  test("LIMIT 0 returns no rows") {
    val t = TestTables.table("t", 200, 4, MemTable.Layout.Random(5), nullEvery = 7)
    for (desc <- Seq(true, false); upfront <- Seq(true, false)) {
      val r = run(t, 0, desc, upfront = upfront)
      assert(r.rows.isEmpty)
    }
  }

  /** A table whose double column `d` and string column `s` hold few distinct
    * values, so that the k-th value of a top-k is tied.
    */
  private def tiedTable(layout: MemTable.Layout): MemTable = {
    val rows = (0 until 600).map { i =>
      Array[Scalar](LongV(i.toLong), DoubleV((i * 7 % 13) / 2.0), StringV(TestTables.vocab(i * 3 % 5)))
    }
    MemTable.build("t", IndexedSeq("id", "d", "s"), rows, 12, layout)
  }

  for (col <- Seq("d", "s")) {
    test(s"top-k over a ${if (col == "d") "double" else "string"} column with ties at the k-th value matches brute force") {
      for (layout <- Seq(MemTable.Layout.Sorted(col), MemTable.Layout.Random(4)); desc <- Seq(true, false);
           k <- Seq(1, 60, 130)) {
        val t = tiedTable(layout)
        val better: (Scalar, Scalar) => Boolean =
          (a, b) => Scalar.compare(a, b).exists(c => if (desc) c > 0 else c < 0)
        val want = t.partitions.flatMap(p => (0 until p.rowCount).flatMap(p.lookupAt(_)(col))).sortWith(better).take(k)
        val r = TopKPruner.run(t.partitions, FilterPruner.noPredicate(t.metas), TopKQuery(col, k, desc))
        assert(r.rows.flatMap(_.orderValue) == want, s"$layout desc=$desc k=$k")
        // Each kept row holds the order value it is reported with.
        r.rows.foreach(h => assert(h.orderValue == t.partition(h.partitionId).lookupAt(h.rowIndex)(col)))
      }
    }
  }
}
