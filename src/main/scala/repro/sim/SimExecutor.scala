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
    var joinKeys: Option[mutable.HashSet[Scalar]] = None

    // Partitions are named by their position in the table, which is also
    // their index in its stats.
    val afterJoinScanIds: Array[Int] = q.join match {
      case None => filtered.scanIndices
      case Some(j) =>
        val build = catalog(j.buildTable)
        buildEligible = build.numPartitions
        val buildFiltered = FilterPruner.classifyOpt(build.stats, j.buildPred)
        buildFilterStat = j.buildPred.map(_ => Ratio(build.numPartitions, buildFiltered.scanCount))
        val keys = mutable.HashSet.empty[Scalar]
        buildFiltered.scanIndices.foreach { i =>
          val p = build.partition(i)
          buildScanned += 1
          p.rows.foreach { row =>
            buildRows += 1
            if (j.buildPred.forall(PExprEval.passes(_, row)))
              row(j.buildKey).foreach(keys += _)
          }
        }
        joinKeys = Some(keys)
        if (j.leftOuterProbeSide) {
          // A LEFT OUTER JOIN preserving the probe side never filters probe
          // rows, so join pruning would be unsound — skip it (§6.2: never
          // prune a partition that must not be pruned).
          filtered.scanIndices
        } else {
          val summary = JoinPruner.summarize(keys, config.summaryRanges)
          val kept = JoinPruner.pruneProbe(probe.stats, filtered.scanIndices, j.probeKey, summary)
          joinStat = Some(Ratio(filtered.scanCount, kept.length))
          kept
        }
    }

    val probeQualifier: PExprEval.RowLookup => Boolean = (joinKeys, q.join) match {
      case (Some(_), Some(j)) if j.leftOuterProbeSide => _ => true // probe rows always survive
      case (Some(keys), Some(j)) =>
        row => row(j.probeKey).exists(keys.contains)
      case _ => _ => true
    }

    val eligible = probe.numPartitions + buildEligible

    // ---- 3/4. LIMIT or top-k pruning + execution -------------------------
    if (q.isTopK && q.topKSupported && q.groupBy.isEmpty) {
      // Figure 7a/7b: TopK directly over the (possibly joined) scan.
      val ob = q.orderBy.get
      val scanData = afterJoinScanIds.toSeq.map(probe.partition)
      // §5.4 init requires that fully-matching rows actually qualify; a join
      // can reject them, so upfront init is only sound without a join.
      val upfront = config.topkUpfrontInit && q.join.isEmpty
      val tq = TopKPruner.TopKQuery(ob.col, q.limit.get.toInt, ob.desc, q.pred,
                                    probeQualifier, config.topkStrategy, upfront)
      val res = TopKPruner.run(scanData, filtered, tq)
      val rows = res.rows.map(h => probe.partition(h.partitionId).data(h.rowIndex).toIndexedSeq)
      QueryReport(q, eligible, buildScanned + res.partitionsScanned,
                  buildRows + res.rowsScanned, filterStat, joinStat, None,
                  Some(Ratio(res.partitionsTotal, res.partitionsScanned)),
                  rows.size.toLong, if (config.materialize) rows else Seq.empty,
                  buildFilterStat)
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
        var r = 0
        while (collected < k && r < p.rowCount) {
          rowsScanned += 1
          val row = p.lookupAt(r)
          if (q.pred.forall(PExprEval.passes(_, row)) && probeQualifier(row)) {
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
      var scanned = 0
      var rowsScanned = 0L
      var count = 0L
      val out = mutable.ArrayBuffer.empty[IndexedSeq[Scalar]]
      afterJoinScanIds.foreach { id =>
        val p = probe.partition(id)
        scanned += 1
        var r = if (config.metadataOnly) p.rowCount else 0
        while (r < p.rowCount) {
          rowsScanned += 1
          val row = p.lookupAt(r)
          if (q.pred.forall(PExprEval.passes(_, row)) && probeQualifier(row)) {
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

  /** Figure 7d: TopK over GROUP BY where the order column is the group key.
    * The aggregation operator maintains its own top-k heap of *distinct*
    * keys; a partition whose best key is worse than the k-th distinct key
    * seen so far cannot influence the result (neither membership nor the
    * aggregates of surviving groups) and is skipped.
    */
  private def executeGroupByTopK(
      probe: MemTable, q: QuerySpec, scanIds: Array[Int],
      qualifier: PExprEval.RowLookup => Boolean, filtered: FilterPruneResult,
      eligible: Int, buildScanned: Int, buildRows: Long,
      filterStat: Option[Ratio], joinStat: Option[Ratio],
      buildFilterStat: Option[Ratio], config: SimConfig): QueryReport = {
    val ob = q.orderBy.get
    val g = q.groupBy.get
    val k = q.limit.get.toInt
    val sign = if (ob.desc) 1 else -1
    implicit val ord: Ordering[Scalar] = (a, b) => Scalar.compare(a, b).getOrElse(0) * sign

    // Process partitions best-potential-first (§5.3 applies unchanged);
    // stats-less (all-null key) partitions go last.
    def potential(id: Int): Option[Scalar] =
      probe.partitions(id).meta.col(g).flatMap(s => if (ob.desc) s.max else s.min)
    val orderedIds = scanIds.toSeq.sortWith { (x, y) =>
      (potential(x), potential(y)) match {
        case (Some(a), Some(b)) => ord.gt(a, b)
        case (Some(_), None)    => true
        case _                  => false
      }
    }

    val keys = mutable.TreeSet.empty[Scalar](ord) // ascending in "goodness"
    val counts = mutable.HashMap.empty[Scalar, Long]
    var scanned = 0
    var skipped = 0
    var rowsScanned = 0L

    orderedIds.foreach { id =>
      val p = probe.partitions(id)
      val best = p.meta.col(g).flatMap(s => if (ob.desc) s.max else s.min)
      val boundary = if (keys.size >= k) Some(keys.head) else None
      val skip = boundary.exists(b => best.forall(v => ord.lt(v, b)))
      if (skip) skipped += 1
      else {
        scanned += 1
        var r = 0
        while (r < p.rowCount) {
          rowsScanned += 1
          val row = p.lookupAt(r)
          if (q.pred.forall(PExprEval.passes(_, row)) && qualifier(row)) {
            row(g).foreach { key =>
              // counts keeps every seen key: an evicted key could re-enter
              // later (boundary ties) and must not lose earlier rows.
              counts.updateWith(key) { c => Some(c.getOrElse(0L) + 1L) }
              keys += key
              if (keys.size > k) keys -= keys.head
            }
          }
          r += 1
        }
      }
    }
    val resultKeys = keys.toSeq.reverse // best first
    val rows = resultKeys.map(key => IndexedSeq(key, Scalar.LongV(counts(key))))
    QueryReport(q, eligible, buildScanned + scanned, buildRows + rowsScanned,
                filterStat, joinStat, None,
                Some(Ratio(scanIds.length, scanned)),
                rows.size.toLong, if (config.materialize) rows else Seq.empty,
                buildFilterStat)
  }
}
