package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelper.forAllSeeded
import repro.meta._
import PExpr._

/** The pruners' index-based results over a table's [[TableStats]] equal the
  * per-partition definitions they replace: classifying each partition
  * alone, LIMIT's greedy cover over the fully-matching records, and the
  * boxed [[Scalar]] build summary and probe.
  */
class IndexedPruningSpec extends AnyFunSuite {

  import Scalar._

  // ---- random tables: empty partitions, absent columns, all-null columns,
  // ---- long, double or mixed long/double ranges

  private def genValue(mixed: Boolean): Gen[Scalar] =
    Gen.chooseNum(-20L, 20L).flatMap { v =>
      if (!mixed) Gen.const(LongV(v)) else Gen.oneOf(LongV(v), DoubleV(v / 2.0))
    }

  private def genStats(rows: Long, mixed: Boolean): Gen[Option[ColumnStats]] =
    if (rows == 0) Gen.oneOf(None, Some(ColumnStats(None, None, 0)))
    else Gen.frequency(
      1 -> Gen.const(None),
      1 -> Gen.const(Some(ColumnStats(None, None, rows))),
      5 -> (for {
        a <- genValue(mixed); b <- genValue(mixed); nulls <- Gen.chooseNum(0L, rows - 1)
      } yield {
        val (lo, hi) = if (Scalar.lte(a, b).contains(true)) (a, b) else (b, a)
        Some(ColumnStats(Some(lo), Some(hi), nulls))
      }))

  private def genTable(cols: Seq[String]): Gen[Vector[PartitionMeta]] = for {
    n <- Gen.chooseNum(0, 25)
    mixed <- Gen.prob(0.3)
    parts <- Gen.listOfN(n, for {
      rows <- Gen.frequency(1 -> Gen.const(0L), 5 -> Gen.chooseNum(1L, 10L))
      stats <- Gen.sequence[List[Option[ColumnStats]], Option[ColumnStats]](
        cols.map(_ => genStats(rows, mixed)))
    } yield (rows, stats))
  } yield parts.zipWithIndex.map { case ((rows, stats), id) =>
    PartitionMeta(id, rows, cols.zip(stats).collect { case (c, Some(s)) => c -> s }.toMap)
  }.toVector

  private def genLeaf: Gen[PExpr] = Gen.oneOf(
    for {
      c <- Gen.oneOf("a", "b", "zz")
      op <- Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)
      v <- genValue(mixed = true)
    } yield Cmp(op, Col(c), Lit(v)),
    Gen.oneOf("a", "b").map(c => IsNull(Col(c)): PExpr),
    Gen.oneOf("a", "b").map(c => IsNotNull(Col(c)): PExpr),
    Gen.listOfN(3, genValue(mixed = false)).map(vs => In(Col("a"), vs): PExpr))

  private def genPred(depth: Int): Gen[PExpr] =
    if (depth <= 0) genLeaf
    else Gen.frequency(
      3 -> genLeaf,
      2 -> Gen.lzy(for { l <- genPred(depth - 1); r <- genPred(depth - 1) } yield And(l, r)),
      2 -> Gen.lzy(for { l <- genPred(depth - 1); r <- genPred(depth - 1) } yield Or(l, r)),
      1 -> Gen.lzy(genPred(depth - 1).map(Not(_))))

  /** A table, a predicate, and some of the table's indices in some order. */
  private val genCase: Gen[(Vector[PartitionMeta], PExpr, Vector[Int])] = for {
    parts <- genTable(Seq("a", "b"))
    pred <- genPred(2)
    order <- Gen.pick(parts.size, parts.indices).map(_.toVector)
    shuffled <- Gen.listOfN(order.size, Gen.chooseNum(0, 1000)).map(ks => order.zip(ks).sortBy(_._2).map(_._1))
    take <- Gen.chooseNum(0, shuffled.size)
  } yield (parts, pred, shuffled.take(take))

  /** The class of one partition, classified alone. */
  private def alone(m: PartitionMeta, pred: Option[PExpr]): MatchClass =
    if (m.rowCount == 0) MatchClass.NotMatching
    else pred.fold[MatchClass](MatchClass.FullyMatching) { p =>
      val o = RangeEval.evalOutcomes(p, m)
      if (!o.t) MatchClass.NotMatching
      else if (o.allTrue) MatchClass.FullyMatching
      else MatchClass.PartiallyMatching
    }

  /** `r` holds exactly the partitions `metas(at)`, classified alone, in that order. */
  private def assertSameAs(r: FilterPruneResult, metas: Vector[PartitionMeta], at: Seq[Int],
                           pred: Option[PExpr]): Unit = {
    val expected = at.map(i => ClassifiedPartition(metas(i), alone(metas(i), pred)))
    assert(r.partitions == expected)
    assert(r.total == at.size)
    assert(r.scanIndices.toSeq == at.zip(expected).collect { case (i, c) if c.inScanSet => i })
    assert(r.fullyIndices.toSeq == at.zip(expected).collect { case (i, c) if c.fullyMatching => i })
    assert(r.scanSet == expected.filter(_.inScanSet).map(_.meta))
    assert(r.fullyMatching == expected.filter(_.fullyMatching).map(_.meta))
    assert(r.scanSet.map(_.id) == r.scanIndices.toSeq.map(metas(_).id))
    assert(r.scanCount == r.scanSet.size)
    assert(r.prunedCount == expected.count(!_.inScanSet))
    assert(r.pruningRatio == (if (at.isEmpty) 0.0 else r.prunedCount.toDouble / at.size))
  }

  test("property: classify, classifyAt and noPredicate equal classifying each partition alone") {
    forAllSeeded(genCase, n = 400) { case (metas, pred, some) =>
      val stats = TableStats.of(metas)
      val all = metas.indices
      assertSameAs(FilterPruner.classify(stats, pred), metas, all, Some(pred))
      assertSameAs(FilterPruner.classify(metas, pred), metas, all, Some(pred))
      assertSameAs(FilterPruner.classifyAt(stats, pred, some.toArray), metas, some, Some(pred))
      assertSameAs(FilterPruner.noPredicate(stats), metas, all, None)
      assertSameAs(FilterPruner.noPredicate(metas), metas, all, None)
      assertSameAs(FilterPruner.classifyOpt(stats, None), metas, all, None)
      assertSameAs(FilterPruner.classifyOpt(metas, Some(pred)), metas, all, Some(pred))
    }
  }

  test("property: a result rebuilt from its classified records keeps every class") {
    forAllSeeded(genCase, n = 200) { case (metas, pred, some) =>
      val r = FilterPruner.classifyAt(TableStats.of(metas), pred, some.toArray)
      val rebuilt = FilterPruneResult(r.partitions)
      assert(rebuilt.partitions == r.partitions)
      assert(rebuilt.scanSet == r.scanSet && rebuilt.fullyMatching == r.fullyMatching)
      assert(rebuilt.scanIndices.toSeq == r.partitions.indices.filter(j => r.partitions(j).inScanSet))
    }
  }

  /** LIMIT pruning as defined over records (§4). */
  private def limitReference(filtered: FilterPruneResult, k: Long,
                             shape: Boolean): (Seq[PartitionMeta], LimitPruner.LimitOutcome) = {
    val scan = filtered.scanSet
    if (scan.size <= 1) (scan, LimitPruner.LimitOutcome.AlreadyMinimal)
    else if (!shape) (scan, LimitPruner.LimitOutcome.Unsupported(shapeBlocked = true))
    else if (filtered.fullyMatching.map(_.rowCount).sum < k)
      (scan, LimitPruner.LimitOutcome.Unsupported(shapeBlocked = false))
    else {
      val sorted = filtered.fullyMatching.sortBy(-_.rowCount)
      val n = sorted.scanLeft(0L)(_ + _.rowCount).indexWhere(_ >= k)
      (sorted.take(n), LimitPruner.LimitOutcome.Pruned(n))
    }
  }

  test("property: LIMIT pruning over indices equals the greedy cover over records") {
    val gen = for { c <- genCase; k <- Gen.chooseNum(0L, 40L); shape <- Gen.prob(0.8) } yield (c, k, shape)
    forAllSeeded(gen, n = 300) { case ((metas, pred, some), k, shape) =>
      val filtered = FilterPruner.classifyAt(TableStats.of(metas), pred, some.toArray)
      val r = LimitPruner.prune(filtered, k, shape)
      val (scan, outcome) = limitReference(filtered, k, shape)
      assert(r.outcome == outcome)
      assert(r.scanSet == scan)
      assert(r.scanIndices.toSeq.map(metas(_)) == scan)
    }
  }

  // ---- JOIN pruning: the typed summary and probe against the boxed ones

  /** [[JoinPruner.summarize]] as defined over boxed values. */
  private def summaryReference(values: Seq[Scalar], maxRanges: Int): JoinPruner.BuildSummary = {
    import JoinPruner._
    val distinct = values.toVector.distinct
    if (distinct.isEmpty) EmptySummary
    else {
      val sorted = distinct.sortWith((a, b) => Scalar.lt(a, b).contains(true))
      if (maxRanges == Int.MaxValue) ExactSetSummary(sorted)
      else if (maxRanges <= 1) MinMaxSummary(ValueRange(sorted.head, sorted.last))
      else if (sorted.size <= maxRanges) ExactSetSummary(sorted)
      else {
        val gaps = (1 until sorted.size).map { i =>
          val w = for { a <- Scalar.asDouble(sorted(i - 1)); b <- Scalar.asDouble(sorted(i)) } yield b - a
          (i, w.getOrElse(0.0))
        }
        val cuts = gaps.sortBy(-_._2).take(maxRanges - 1).map(_._1).sorted
        val bounds = (0 +: cuts) :+ sorted.size
        RangeSetSummary(bounds.sliding(2).collect {
          case Seq(s, e) if s < e => ValueRange(sorted(s), sorted(e - 1))
        }.toVector)
      }
    }
  }

  /** Whether a probe partition is kept, as defined over its record. */
  private def keepsReference(m: PartitionMeta, summary: JoinPruner.BuildSummary): Boolean =
    m.col("k") match {
      case Some(ColumnStats(Some(mn), Some(mx), _)) => summary.mayOverlap(ValueRange(mn, mx))
      case Some(ColumnStats(None, None, _))         => false
      case _                                        => true
    }

  /** Build keys: small longs, longs near 2^60 whose gaps tie once widened to
    * double, or longs mixed with doubles; with repeats.
    */
  private val genKeys: Gen[Vector[Scalar]] = Gen.oneOf(
    Gen.listOf(Gen.chooseNum(-30L, 200L).map(LongV(_): Scalar)),
    Gen.listOf(Gen.chooseNum(0L, 5000L).map(d => LongV((1L << 60) + d * 97): Scalar)),
    Gen.listOf(Gen.oneOf(Gen.chooseNum(-30L, 200L).map(LongV(_): Scalar),
                         Gen.chooseNum(-60, 400).map(d => DoubleV(d / 2.0): Scalar))),
    Gen.listOf(Gen.oneOf("a", "c", "e", "g").map(StringV(_): Scalar))
  ).map(_.toVector)

  private val genJoinCase = for {
    keys <- genKeys
    budget <- Gen.oneOf(1, 2, 3, 64, Int.MaxValue)
    probe <- genTable(Seq("k"))
    order <- Gen.pick(probe.size, probe.indices).map(_.toVector.reverse)
  } yield (keys, budget, probe, order)

  test("property: the typed summary and probe keep exactly the boxed ones' partitions") {
    forAllSeeded(genJoinCase, n = 500) { case (keys, budget, probe, order) =>
      val summary = JoinPruner.summarize(keys, budget)
      assert(summary.toString == summaryReference(keys, budget).toString)
      val stats = TableStats.of(probe)
      val kept = JoinPruner.pruneProbe(stats, order.toArray, "k", summary)
      assert(kept.toSeq == order.filter(i => keepsReference(probe(i), summary)))
      val r = JoinPruner.pruneProbe(probe, "k", summary)
      assert(r.scanSet == probe.filter(keepsReference(_, summary)))
      assert(r.prunedCount == probe.size - r.scanSet.size && r.total == probe.size)
    }
  }

  test("property: range sets from many long keys match the boxed path at budgets 1, 64 and unbounded") {
    val gen = for {
      n <- Gen.chooseNum(65, 400)
      keys <- Gen.listOfN(n, Gen.frequency(3 -> Gen.chooseNum(0L, 3000L),
                                           1 -> Gen.chooseNum(0L, 40L).map(d => (1L << 60) + d * 64)))
      probe <- genTable(Seq("k"))
    } yield (keys.map(LongV(_): Scalar).toVector, probe.map { m =>
      // Probe ranges over the keys' domain.
      m.copy(cols = m.cols.map { case (c, s) =>
        c -> s.copy(min = s.min.map { case LongV(v) => LongV(v * 150); case o => o },
                     max = s.max.map { case LongV(v) => LongV(v * 150 + 40); case o => o })
      })
    })
    forAllSeeded(gen, n = 150) { case (keys, probe) =>
      Seq(1, 64, Int.MaxValue).foreach { budget =>
        val summary = JoinPruner.summarize(keys, budget)
        assert(summary.toString == summaryReference(keys, budget).toString)
        val all = probe.indices.toArray
        assert(JoinPruner.pruneProbe(TableStats.of(probe), all, "k", summary).toSeq ==
               all.toSeq.filter(i => keepsReference(probe(i), summary)))
      }
    }
  }
}
