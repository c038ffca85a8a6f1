package repro.sim

import scala.collection.mutable

import repro.core._
import repro.meta.Scalar

/** Deterministic single-process executor implementing the paper's pruning
  * flow (§7): filter pruning → join pruning → LIMIT pruning → top-k pruning,
  * then "execution" (scanning the surviving partitions).
  *
  * Its purpose is to measure what the paper measures — scan-set sizes before
  * and after each technique — on workloads of thousands of queries, which
  * would be prohibitively slow as individual Spark jobs. Result correctness
  * of the executor itself is cross-checked against Spark + DuckDB in the
  * test suite; pruning soundness (no false negatives) is property-tested.
  */
object SimExecutor {

  final case class SimConfig(
      /** Build-summary budget for join pruning (number of ranges, §6.1). */
      summaryRanges: Int = 64,
      topkStrategy: TopKPruner.OrderStrategy = TopKPruner.OrderStrategy.SortByBoundaryPotential,
      topkUpfrontInit: Boolean = true,
      /** Keep result rows (tests) or only counts (workload benches). */
      materialize: Boolean = false,
      /** Workload-scale mode: skip row scans whose only purpose is producing
        * result rows (plain scans, LIMIT execution). Pruning decisions are
        * metadata-driven and unaffected; top-k and build sides still scan
        * because the technique itself is data-dependent.
        */
      metadataOnly: Boolean = false)

  /** Scan-set size before/after one pruning technique on one scan. */
  final case class Ratio(before: Int, after: Int) {
    def pruned: Int = before - after
    def ratio: Double = if (before == 0) 0.0 else pruned.toDouble / before
    def prunedAny: Boolean = pruned > 0
  }

  final case class QueryReport(
      spec: QuerySpec,
      /** All partitions the query would touch with pruning disabled
        * (probe + build side) — denominator of the paper's global 99.4 %.
        */
      partitionsEligible: Int,
      partitionsScanned: Int,
      rowsScanned: Long,
      filter: Option[Ratio],
      join: Option[Ratio],
      limit: Option[(LimitPruner.LimitOutcome, Ratio)],
      topk: Option[Ratio],
      resultCount: Long,
      resultRows: Seq[IndexedSeq[Scalar]],
      /** Filter pruning on the join build side (a predicate too, Fig. 4). */
      buildFilter: Option[Ratio] = None) {
    def partitionsPruned: Int = partitionsEligible - partitionsScanned
  }

  def execute(catalog: String => MemTable, q: QuerySpec,
              config: SimConfig = SimConfig()): QueryReport = {
    val probe = catalog(q.table)

    // ---- 1. filter pruning (compile time) on the main scan ---------------
    val filtered = FilterPruner.classifyOpt(probe.stats, q.pred)
    val filterStat = q.pred.map(_ => Ratio(probe.numPartitions, filtered.scanCount))

    // ---- 2. build side + join pruning ------------------------------------
    var buildScanned = 0
    var buildRows = 0L
    var buildEligible = 0
    var joinStat: Option[Ratio] = None
    var buildFilterStat: Option[Ratio] = None
    var joinKeys: JoinKeys = null

    // Partitions are named by their position in the table, which is also
    // their index in its stats.
    val afterJoinScanIds: Array[Int] = q.join match {
      case None => filtered.scanIndices
      case Some(j) =>
        val build = catalog(j.buildTable)
        buildEligible = build.numPartitions
        val buildFiltered = FilterPruner.classifyOpt(build.stats, j.buildPred)
        buildFilterStat = j.buildPred.map(_ => Ratio(build.numPartitions, buildFiltered.scanCount))
        val keys = new JoinKeys
        buildFiltered.scanIndices.foreach { i =>
          val p = build.partition(i)
          buildScanned += 1
          buildRows += p.rowCount
          keys.addAll(p.column(j.buildKey), p.rowCount, rowFilter(p, j.buildPred, null))
        }
        joinKeys = keys
        if (j.leftOuterProbeSide) {
          // A LEFT OUTER JOIN preserving the probe side never filters probe
          // rows, so join pruning would be unsound — skip it (§6.2: never
          // prune a partition that must not be pruned).
          filtered.scanIndices
        } else {
          val summary = keys.summary(config.summaryRanges)
          val kept = JoinPruner.pruneProbe(probe.stats, filtered.scanIndices, j.probeKey, summary)
          joinStat = Some(Ratio(filtered.scanCount, kept.length))
          kept
        }
    }

    // Join-probe membership of a partition's rows; none when every probe
    // row survives the join.
    val probeKey = q.join.collect { case j if !j.leftOuterProbeSide => j.probeKey }
    val probeQualifier: PartitionData => (Int => Boolean) =
      probeKey.map(key => (p: PartitionData) => joinKeys.matcher(p.column(key))).orNull

    val eligible = probe.numPartitions + buildEligible

    // ---- 3/4. LIMIT or top-k pruning + execution -------------------------
    if (q.isTopK && q.topKSupported && q.groupBy.isEmpty) {
      // Figure 7a/7b: TopK directly over the (possibly joined) scan.
      val ob = q.orderBy.get
      // §5.4 init requires that fully-matching rows actually qualify; a join
      // can reject them, so upfront init is only sound without a join.
      val upfront = config.topkUpfrontInit && q.join.isEmpty
      val tq = TopKPruner.TopKQuery(ob.col, q.limit.get.toInt, ob.desc, q.pred,
                                    strategy = config.topkStrategy, upfrontInit = upfront)
      val res = TopKPruner.run(probe.stats, afterJoinScanIds, probe.partition, filtered, tq, probeQualifier)
      val rows =
        if (config.materialize) res.rows.map(h => probe.partition(h.partitionId).data(h.rowIndex).toIndexedSeq)
        else Seq.empty
      QueryReport(q, eligible, buildScanned + res.partitionsScanned,
                  buildRows + res.rowsScanned, filterStat, joinStat, None,
                  Some(Ratio(res.partitionsTotal, res.partitionsScanned)),
                  res.rows.size.toLong, rows, buildFilterStat)
    } else if (q.isTopK && q.topKSupported && q.groupBy.isDefined) {
      executeGroupByTopK(probe, q, afterJoinScanIds, probeQualifier, filtered,
                         eligible, buildScanned, buildRows, filterStat, joinStat,
                         buildFilterStat, config)
    } else if (q.isLimitOnly) {
      // §4: LIMIT pruning. Blocked by joins/aggregations unless the query
      // shape says otherwise (LEFT OUTER probe side keeps it legal, §4.3).
      val shapeOk = q.limitShapeSupported &&
        q.groupBy.isEmpty &&
        q.join.forall(_.leftOuterProbeSide)
      val lim = LimitPruner.prune(filtered, q.limit.get, shapeOk)
      val limitScanIds =
        if (shapeOk && lim.outcome.isInstanceOf[LimitPruner.LimitOutcome.Pruned]) lim.scanIndices
        else afterJoinScanIds
      val limStat = Ratio(afterJoinScanIds.length, limitScanIds.length)
      // Execute with early halt once k qualifying rows are found.
      val k = q.limit.get
      var collected = 0L
      var scanned = 0
      var rowsScanned = 0L
      val out = mutable.ArrayBuffer.empty[IndexedSeq[Scalar]]
      val it = if (config.metadataOnly) Iterator.empty else limitScanIds.iterator
      while (collected < k && it.hasNext) {
        val p = probe.partition(it.next())
        scanned += 1
        val pass = rowFilter(p, q.pred, probeQualifier)
        var r = 0
        while (collected < k && r < p.rowCount) {
          rowsScanned += 1
          if (pass(r)) {
            collected += 1
            if (config.materialize) out += p.data(r).toIndexedSeq
          }
          r += 1
        }
      }
      // Metadata-only mode never walked rows; charge the full pruned scan
      // set so partition-level accounting stays comparable.
      if (config.metadataOnly) scanned = limitScanIds.length
      QueryReport(q, eligible, buildScanned + scanned, buildRows + rowsScanned,
                  filterStat, joinStat, Some((lim.outcome, limStat)), None,
                  collected, out.toSeq, buildFilterStat)
    } else {
      // Plain scan / unsupported-top-k / aggregate: scan the full remaining
      // scan set (the engine still benefits from filter + join pruning).
      // Metadata-only mode walks no rows.
      val scanned = afterJoinScanIds.length
      var rowsScanned = 0L
      var count = 0L
      val out = mutable.ArrayBuffer.empty[IndexedSeq[Scalar]]
      if (!config.metadataOnly) afterJoinScanIds.foreach { id =>
        val p = probe.partition(id)
        val pass = rowFilter(p, q.pred, probeQualifier)
        rowsScanned += p.rowCount
        var r = 0
        while (r < p.rowCount) {
          if (pass(r)) {
            count += 1
            if (config.materialize) out += p.data(r).toIndexedSeq
          }
          r += 1
        }
      }
      // Unsupported top-k / limit still truncates the *result* (not the scan).
      val resultCount = q.limit.map(k => math.min(k, count)).getOrElse(count)
      QueryReport(q, eligible, buildScanned + scanned, buildRows + rowsScanned,
                  filterStat, joinStat, None, None, resultCount, out.toSeq,
                  buildFilterStat)
    }
  }

  /** Does row `r` of `p` qualify: pass `pred`, bound to the partition's
    * columns once, and the join (`joined`, null for none)?
    */
  private def rowFilter(p: MemPartition, pred: Option[PExpr],
                        joined: PartitionData => (Int => Boolean)): Int => Boolean = {
    val bound = pred.map(RowEval.bind(_, p)).orNull
    val join = if (joined == null) null else joined(p)
    if (bound == null && join == null) _ => true
    else if (join == null) bound.passes
    else if (bound == null) join
    else r => bound.passes(r) && join(r)
  }

  /** The build side's join keys: longs unboxed, keys of other families
    * boxed. Membership follows `Scalar` equality, as a set of boxed keys
    * would.
    */
  private final class JoinKeys {
    private val longBuilder = new mutable.ArrayBuilder.ofLong
    private val others = mutable.ArrayBuffer.empty[Scalar]
    private lazy val longs: Array[Long] = longBuilder.result()
    private lazy val sortedLongs: Array[Long] = { java.util.Arrays.sort(longs); longs }
    private lazy val otherSet: mutable.HashSet[Scalar] = mutable.HashSet.from(others)

    /** The non-null keys of column `c` (null: absent) in the rows that pass. */
    def addAll(c: ColumnVec, rowCount: Int, pass: Int => Boolean): Unit = c match {
      case null =>
      case c: ColumnVec.Longs =>
        var r = 0
        while (r < rowCount) {
          if (!c.isNull(r) && pass(r)) longBuilder += c.values(r)
          r += 1
        }
      case c =>
        var r = 0
        while (r < rowCount) {
          if (!c.isNull(r) && pass(r)) c.get(r) match {
            case Scalar.LongV(v) => longBuilder += v
            case s               => others += s
          }
          r += 1
        }
    }

    def summary(maxRanges: Int): JoinPruner.BuildSummary =
      if (others.isEmpty) JoinPruner.summarizeLongs(longs, maxRanges)
      else JoinPruner.summarize(longs.iterator.map(Scalar.LongV(_)) ++ others, maxRanges)

    /** Does row `r` of probe column `c` (null: absent) hold a key? */
    def matcher(c: ColumnVec): Int => Boolean = c match {
      case null => _ => false
      case c: ColumnVec.Longs =>
        val keys = sortedLongs
        r => !c.isNull(r) && java.util.Arrays.binarySearch(keys, c.values(r)) >= 0
      case c =>
        r => c.get(r) match {
          case null            => false
          case Scalar.LongV(v) => java.util.Arrays.binarySearch(sortedLongs, v) >= 0
          case s               => otherSet.contains(s)
        }
    }
  }

  /** Row counts per group key, long keys unboxed. */
  private final class GroupCounts {
    private final class Count(var n: Long)
    private val longs = mutable.LongMap.empty[Count]
    private val others = mutable.HashMap.empty[Scalar, Count]

    /** Count one row of key `v`; true if `v` is new. */
    def addLong(v: Long): Boolean = longs.getOrNull(v) match {
      case null => longs.update(v, new Count(1)); true
      case c    => c.n += 1; false
    }

    /** Count one row of key `s`; true if `s` is new. */
    def add(s: Scalar): Boolean = s match {
      case Scalar.LongV(v) => addLong(v)
      case _ =>
        others.get(s) match {
          case Some(c) => c.n += 1; false
          case None    => others.update(s, new Count(1)); true
        }
    }

    def apply(s: Scalar): Long = s match {
      case Scalar.LongV(v) => longs(v).n
      case _               => others(s).n
    }
  }

  /** Figure 7d: TopK over GROUP BY where the order column is the group key.
    * The aggregation operator maintains its own top-k heap of *distinct*
    * keys; a partition whose best key is worse than the k-th distinct key
    * seen so far cannot influence the result (neither membership nor the
    * aggregates of surviving groups) and is skipped. The NULL group sorts
    * last, in both directions, so it is in the result only after fewer
    * than k keys.
    */
  private def executeGroupByTopK(
      probe: MemTable, q: QuerySpec, scanIds: Array[Int],
      qualifier: PartitionData => (Int => Boolean), filtered: FilterPruneResult,
      eligible: Int, buildScanned: Int, buildRows: Long,
      filterStat: Option[Ratio], joinStat: Option[Ratio],
      buildFilterStat: Option[Ratio], config: SimConfig): QueryReport = {
    val ob = q.orderBy.get
    val g = q.groupBy.get
    // Process partitions best-potential-first (§5.3 applies unchanged);
    // stats-less (all-null key) partitions go last.
    val orderedIds = TopKPruner.processingOrder(probe.stats, scanIds, g, ob.desc)
    val keyZones = probe.stats.column(g)

    // The k best distinct keys. A key is offered when first seen:
    // offering a key seen before cannot change the k best distinct keys.
    val heap = new BoundaryHeap(q.limit.get.toInt, ob.desc, null)
    // counts keeps every seen key: an evicted key could re-enter later
    // (boundary ties) and must not lose earlier rows.
    val counts = new GroupCounts
    var nullKeys = 0L // rows of the NULL group, which sorts last
    var scanned = 0
    var skipped = 0
    var rowsScanned = 0L

    orderedIds.foreach { id =>
      if (heap.shouldSkip(TopKPruner.best(keyZones, id, ob.desc))) skipped += 1
      else {
        val p = probe.partitions(id)
        scanned += 1
        rowsScanned += p.rowCount
        val pass = rowFilter(p, q.pred, qualifier)
        val c = p.column(g)
        val longs = c match { case l: ColumnVec.Longs => l.values; case _ => null }
        var r = 0
        while (r < p.rowCount) {
          if (pass(r)) {
            if (c == null || c.isNull(r)) nullKeys += 1
            else if (if (longs != null) counts.addLong(longs(r)) else counts.add(c.get(r))) heap.offer(c, r, 0L)
          }
          r += 1
        }
      }
    }
    val keys = heap.drain().values // best first
    // Fewer than k keys: the boundary never activated, so no partition was
    // skipped and the NULL group's count is exact; NULLS LAST puts it last.
    val resultKeys = if (keys.length < heap.k && nullKeys > 0) keys :+ null else keys
    val rows =
      if (config.materialize)
        resultKeys.toSeq.map(key => IndexedSeq(key, Scalar.LongV(if (key == null) nullKeys else counts(key))))
      else Seq.empty
    QueryReport(q, eligible, buildScanned + scanned, buildRows + rowsScanned,
                filterStat, joinStat, None,
                Some(Ratio(scanIds.length, scanned)),
                resultKeys.length.toLong, rows, buildFilterStat)
  }
}
