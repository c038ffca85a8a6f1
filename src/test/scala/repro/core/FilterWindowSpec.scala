package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelper.forAllSeeded
import repro.meta._
import repro.sim.{MemPartition, MemTable}
import PExpr._

/** `FilterPruner.classify` evaluates a predicate only inside its window
  * ([[RangeEval.Bound.window]]) and leaves every partition outside it not
  * matching. These tests check the window as a function of the predicate and
  * the column's running bounds, and that the windowed classification equals
  * the dense one, class for class.
  */
class FilterWindowSpec extends AnyFunSuite {

  import Scalar._

  private val ops = Seq(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)

  // ---- random tables: `v` a sorted, clustered or random long or date column
  // ---- with empty, all-NULL, NULL-bearing, absent and mixed-family
  // ---- partitions; `w` a random long column

  private sealed trait Layout
  private case object Sorted extends Layout
  private case object Clustered extends Layout
  private case object Random extends Layout

  /** Partition `i`'s range of `v` from two draws `a` and `b` in 0..1000,
    * before any extreme end is put in.
    */
  private def range(layout: Layout, i: Int, prevHi: Long, a: Long, b: Long): (Long, Long) = layout match {
    case Sorted    => (prevHi + a % 5, prevHi + a % 5 + b % 6)
    case Clustered => (5L * i + a % 17 - 8, 5L * i + a % 17 - 8 + b % 13)
    case Random    => (a % 121 - 60, a % 121 - 60 + b % 31)
  }

  private final class Table(val metas: Vector[PartitionMeta], val dates: Boolean)

  private val genTable: Gen[Table] = for {
    n <- Gen.chooseNum(0, 40)
    dates <- Gen.prob(0.4)
    layout <- Gen.oneOf(Sorted, Clustered, Random)
    absent <- Gen.frequency(3 -> Gen.const(0.0), 1 -> Gen.const(0.1))
    mixed <- Gen.frequency(6 -> Gen.const(false), 1 -> Gen.const(!dates))
    seeds <- Gen.listOfN(n, for {
      kind <- Gen.frequency(1 -> "empty", 1 -> "all-null", 2 -> "nulls", 6 -> "plain")
      rows <- Gen.chooseNum(2L, 10L)
      isAbsent <- Gen.prob(absent)
      isDouble <- Gen.prob(if (mixed) 0.2 else 0.0)
      extreme <- Gen.frequency(12 -> Gen.const(0), 1 -> Gen.const(-1), 1 -> Gen.const(1))
      a <- Gen.chooseNum(0L, 1000L)
      b <- Gen.chooseNum(0L, 1000L)
    } yield (kind, rows, isAbsent, isDouble, extreme, a, b))
  } yield {
    val (lowest, highest) = if (dates) (Int.MinValue.toLong, Int.MaxValue.toLong) else (Long.MinValue, Long.MaxValue)
    var prevHi = -50L
    val metas = seeds.zipWithIndex.map { case ((kind, rows0, isAbsent, isDouble, extreme, a, b), i) =>
      val (lo0, hi0) = range(layout, i, prevHi, a, b)
      prevHi = hi0
      val (lo, hi) = extreme match { case -1 => (lowest, hi0); case 1 => (lo0, highest); case _ => (lo0, hi0) }
      def s(x: Long): Scalar = if (isDouble) DoubleV(x.toDouble) else if (dates) DateV(x.toInt) else LongV(x)
      val rows = if (kind == "empty") 0L else rows0
      val v = kind match {
        case "empty"    => ColumnStats(None, None, 0)
        case "all-null" => ColumnStats(None, None, rows)
        case "nulls"    => ColumnStats(Some(s(lo)), Some(s(hi)), 1 + a % (rows - 1))
        case _          => ColumnStats(Some(s(lo)), Some(s(hi)), 0)
      }
      val cols = Map("w" -> ColumnStats(Some(LongV(a % 81 - 40)), Some(LongV(a % 81 - 40 + b % 21)), 0)) ++
        (if (isAbsent) Map.empty else Map("v" -> v))
      PartitionMeta(i, rows, cols)
    }.toVector
    new Table(metas, dates)
  }

  /** A literal for `v`: a partition bound or one off it, an end of the
    * family's domain, or any value; on a date column sometimes a long.
    */
  private def genLit(t: Table): Gen[Scalar] = {
    val bounds = t.metas.flatMap(_.cols.get("v")).flatMap(c => c.min.toSeq ++ c.max.toSeq).collect {
      case LongV(x) => x
      case DateV(x) => x.toLong
    }
    val ends = if (t.dates) Seq(Int.MinValue.toLong, Int.MaxValue.toLong) else Seq(Long.MinValue, Long.MaxValue)
    val raw = Gen.frequency(
      4 -> (if (bounds.isEmpty) Gen.chooseNum(-60L, 250L)
            else for { b <- Gen.oneOf(bounds); d <- Gen.oneOf(-1L, 0L, 0L, 1L) } yield b + d),
      1 -> Gen.oneOf(ends),
      2 -> Gen.chooseNum(-60L, 250L))
    for { x <- raw; long <- Gen.prob(if (t.dates) 0.15 else 0.0) } yield
      if (t.dates && !long && x >= Int.MinValue && x <= Int.MaxValue) DateV(x.toInt) else LongV(x)
  }

  private def genLeaf(t: Table): Gen[PExpr] = Gen.frequency(
    8 -> (for { op <- Gen.oneOf(ops); x <- genLit(t) } yield Cmp(op, Col("v"), Lit(x))),
    2 -> (for { op <- Gen.oneOf(ops); x <- genLit(t) } yield Cmp(op, Lit(x), Col("v"))),
    2 -> (for { op <- Gen.oneOf(ops); x <- Gen.chooseNum(-40L, 60L) } yield Cmp(op, Col("w"), Lit(LongV(x)))),
    1 -> Gen.const(IsNull(Col("v"))))

  private def genPred(t: Table, depth: Int): Gen[PExpr] =
    if (depth <= 0) genLeaf(t)
    else Gen.frequency(
      3 -> genLeaf(t),
      4 -> Gen.lzy(for { l <- genPred(t, depth - 1); r <- genPred(t, depth - 1) } yield And(l, r)),
      1 -> Gen.lzy(for { l <- genPred(t, depth - 1); r <- genPred(t, depth - 1) } yield Or(l, r)),
      1 -> Gen.lzy(genPred(t, depth - 1).map(Not(_))),
      1 -> Gen.lzy(genPred(t, depth - 1).map(IsNotTrue(_))))

  private val genCase: Gen[(Table, PExpr)] = for { t <- genTable; p <- genPred(t, 2) } yield (t, p)

  /** The class of one partition, classified alone. */
  private def alone(m: PartitionMeta, pred: PExpr): MatchClass = {
    val o = RangeEval.evalOutcomes(pred, m)
    if (m.rowCount == 0 || !o.t) MatchClass.NotMatching
    else if (o.allTrue) MatchClass.FullyMatching
    else MatchClass.PartiallyMatching
  }

  test("property: windowed classify equals dense classification and classifying each partition alone") {
    var narrowed = 0
    forAllSeeded(genCase, n = 1500) { case (t, pred) =>
      val n = t.metas.size
      val stats = TableStats.of(t.metas)
      val window = RangeEval.bind(pred, stats).window
      val windowed = FilterPruner.classify(stats, pred)
      val dense = FilterPruner.classifyAt(stats, pred, Array.range(0, n))
      val expected = t.metas.map(alone(_, pred))
      assert(windowed.partitions == dense.partitions, s"$pred")
      assert(windowed.partitions.map(_.cls) == expected, s"$pred")
      assert(windowed.scanIndices.toSeq == dense.scanIndices.toSeq)
      assert(windowed.fullyIndices.toSeq == dense.fullyIndices.toSeq)
      assert(windowed.total == n && dense.total == n)
      assert(window.start >= 0 && window.end <= n)
      assert(expected.indices.forall(i => window.contains(i) || expected(i) == MatchClass.NotMatching))
      if (window.size < n) narrowed += 1
    }
    assert(narrowed > 300, s"only $narrowed cases narrowed the window")
  }

  // ---- a table of 100 partitions sorted on `v`: partition i holds
  // ---- v = 10i .. 10i+9, and `k` in a random order

  private val parts = 100
  private val schema = IndexedSeq("v", "k")
  private val sorted = {
    val rnd = new scala.util.Random(7)
    new MemTable("sorted", schema, Vector.tabulate(parts) { i =>
      MemPartition.of(i, schema, Array.tabulate(10)(r => Array[Scalar](LongV(10L * i + r), LongV(rnd.nextInt(1000).toLong))))
    })
  }

  private def v(op: CmpOp, c: Long): PExpr = Cmp(op, Col("v"), Lit(LongV(c)))
  private def windowOf(stats: TableStats, pred: PExpr): Range = RangeEval.bind(pred, stats).window

  test("v = c keeps exactly the partition holding c") {
    for (c <- 0L until 10L * parts by 7) {
      assert(windowOf(sorted.stats, v(CmpOp.Eq, c)) == ((c / 10).toInt until (c / 10).toInt + 1))
      val r = FilterPruner.classify(sorted.stats, v(CmpOp.Eq, c))
      assert(r.scanIndices.toSeq == Seq((c / 10).toInt))
      assert(r.fullyIndices.isEmpty && r.total == parts)
    }
  }

  test("a range AND keeps the intersection of its conjuncts' windows") {
    assert(windowOf(sorted.stats, v(CmpOp.Gte, 250)) == (25 until parts))
    assert(windowOf(sorted.stats, v(CmpOp.Lt, 400)) == (0 until 40))
    val pred = And(v(CmpOp.Gte, 250), v(CmpOp.Lt, 400))
    assert(windowOf(sorted.stats, pred) == (25 until 40))
    val r = FilterPruner.classify(sorted.stats, pred)
    assert(r.scanIndices.toSeq == (25 until 40))
    assert(r.fullyIndices.toSeq == (25 until 40))
    assert(windowOf(sorted.stats, And(v(CmpOp.Gt, 255), v(CmpOp.Lte, 400))) == (25 until 41))
    // A conjunct over another column keeps the window of the `v` conjuncts.
    assert(windowOf(sorted.stats, And(pred, Cmp(CmpOp.Lt, Col("k"), Lit(LongV(500))))) == (25 until 40))
  }

  test("an empty window gives an empty scan set over the whole table, every partition not matching") {
    for (pred <- Seq(And(v(CmpOp.Lt, 300), v(CmpOp.Gt, 600)), v(CmpOp.Gt, 999), v(CmpOp.Lt, 0),
                     v(CmpOp.Eq, Long.MaxValue), v(CmpOp.Lt, Long.MinValue))) {
      assert(windowOf(sorted.stats, pred).isEmpty, s"$pred")
      val r = FilterPruner.classify(sorted.stats, pred)
      assert(r.scanIndices.isEmpty && r.fullyIndices.isEmpty && r.scanSet.isEmpty)
      assert(r.total == parts && r.prunedCount == parts)
      assert(r.partitions.map(_.meta.id) == (0 until parts))
      assert(r.partitions.forall(_.cls == MatchClass.NotMatching))
    }
  }

  test("a column absent from a partition, or without a range where it has non-NULL rows, spans the table") {
    val metas = sorted.metas.map(m => if (m.id == 50) m.copy(cols = m.cols - "v") else m)
    val stats = TableStats.of(metas)
    assert(windowOf(stats, v(CmpOp.Eq, 437)) == (0 until parts))
    val r = FilterPruner.classify(stats, v(CmpOp.Eq, 437))
    assert(r.scanIndices.toSeq == Seq(43, 50))
    // No range yet a non-NULL row: such a partition may hold any value.
    val odd = sorted.metas.map(m => if (m.id == 50) m.copy(cols = m.cols.updated("v", ColumnStats(None, None, 0))) else m)
    assert(windowOf(TableStats.of(odd), v(CmpOp.Eq, 437)) == (0 until parts))
    // An all-NULL partition can never be TRUE, so it leaves the window as it is.
    val allNull = sorted.metas.map(m => if (m.id == 50) m.copy(cols = m.cols.updated("v", ColumnStats(None, None, 10))) else m)
    assert(windowOf(TableStats.of(allNull), v(CmpOp.Eq, 437)) == (43 until 44))
  }

  test("OR, NOT, IS NOT TRUE, <>, a literal on the left and a long literal on a date column span the table") {
    val dates = TableStats.of(sorted.metas.map(m => m.copy(cols = m.cols.map {
      case (c, ColumnStats(Some(LongV(a)), Some(LongV(b)), nulls)) => c -> ColumnStats(Some(DateV(a.toInt)), Some(DateV(b.toInt)), nulls)
      case other => other
    })))
    assert(windowOf(dates, Cmp(CmpOp.Eq, Col("v"), Lit(DateV(437)))) == (43 until 44))
    for ((stats, pred) <- Seq(
      sorted.stats -> Or(v(CmpOp.Eq, 5), v(CmpOp.Eq, 900)),
      sorted.stats -> Not(v(CmpOp.Lt, 500)),
      sorted.stats -> IsNotTrue(v(CmpOp.Gte, 500)),
      sorted.stats -> v(CmpOp.Neq, 437),
      sorted.stats -> Cmp(CmpOp.Gt, Lit(LongV(500)), Col("v")),
      dates -> Cmp(CmpOp.Eq, Col("v"), Lit(LongV(437))))) {
      assert(windowOf(stats, pred) == (0 until parts), s"$pred")
      assert(FilterPruner.classify(stats, pred).partitions ==
             FilterPruner.classifyAt(stats, pred, Array.range(0, parts)).partitions, s"$pred")
    }
  }

  test("windowed results leave the shared arrays as they were after the pruners consume them") {
    val stats = sorted.stats
    val all = stats.allIndices.clone()
    val nonEmpty = stats.nonEmptyIndices.clone()
    val running = stats.column("v").asInstanceOf[ColumnArrays.Longs].running(stats.rowCount).get
    val (maxUpTo, minFrom) = (running.maxUpTo.clone(), running.minFrom.clone())
    val preds = Seq(And(v(CmpOp.Gte, 250), v(CmpOp.Lt, 400)), v(CmpOp.Eq, 437), v(CmpOp.Gt, 999), v(CmpOp.Lte, 55))
    val before = preds.map(p => FilterPruner.classify(stats, p).partitions)
    for (p <- preds; k <- Seq(1, 5, 40); desc <- Seq(false, true)) {
      val r = FilterPruner.classify(stats, p)
      LimitPruner.prune(r, k.toLong, shapeSupported = true)
      TopKPruner.run(stats, r.scanIndices, sorted.partition, r, TopKPruner.TopKQuery("k", k, desc), null)
      JoinPruner.pruneProbe(stats, r.scanIndices, "v", JoinPruner.summarizeLongs(Array(5L, 437L, 900L), 2))
    }
    assert(stats.allIndices.toSeq == all.toSeq && stats.nonEmptyIndices.toSeq == nonEmpty.toSeq)
    assert(running.maxUpTo.toSeq == maxUpTo.toSeq && running.minFrom.toSeq == minFrom.toSeq)
    assert(preds.map(p => FilterPruner.classify(stats, p).partitions) == before)
    assert(before == preds.map(p => FilterPruner.classifyAt(stats, p, Array.range(0, parts)).partitions))
  }
}
