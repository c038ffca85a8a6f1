package repro.core

import repro.meta.{PartitionMeta, TableStats}

/** §4 — pruning for LIMIT queries.
  *
  * If the fully-matching partitions (§4.2) together hold at least `k` rows,
  * the scan set can be shrunk to the *minimal* number of fully-matching
  * partitions whose row counts cover `k` — globally IO-optimal for the
  * supported query shapes, using only existing min/max metadata.
  *
  * Outcomes mirror the paper's Table 2 categories:
  *  - [[LimitOutcome.AlreadyMinimal]] — the post-filter scan set is already
  *    ≤ 1 partition; nothing to gain.
  *  - [[LimitOutcome.Unsupported]] — the LIMIT cannot be pushed to this scan
  *    (row-reducing operators in between) or fully-matching coverage < k.
  *  - [[LimitOutcome.Pruned]] — scan set reduced to `n` partitions (n is
  *    optimal given per-partition row counts).
  */
object LimitPruner {

  sealed trait LimitOutcome extends Product with Serializable
  object LimitOutcome {
    case object AlreadyMinimal extends LimitOutcome
    /** `shapeBlocked` distinguishes "LIMIT not pushable" from "no coverage". */
    final case class Unsupported(shapeBlocked: Boolean) extends LimitOutcome
    final case class Pruned(resultPartitions: Int) extends LimitOutcome
  }

  /** The scan set as positions in `stats.metas`, in scan order. */
  final class LimitPruneResult(val stats: TableStats, val scanIndices: Array[Int], val outcome: LimitOutcome) {
    lazy val scanSet: Seq[PartitionMeta] = scanIndices.iterator.map(stats.metas).toVector
  }

  /** @param filtered       result of filter pruning (pass 1 + 2)
    * @param k              the LIMIT (incl. OFFSET if any)
    * @param shapeSupported whether the LIMIT reaches this scan (no blocking
    *                       operators, §4.3); joins/aggregations block, the
    *                       build side of a LEFT OUTER JOIN does not.
    */
  def prune(filtered: FilterPruneResult, k: Long, shapeSupported: Boolean): LimitPruneResult =
    prune(filtered.stats, filtered.scanIndices, filtered.fullyIndices, k, shapeSupported)

  /** LIMIT pruning of the partitions of `stats` at `scan`, of which those at
    * `fully` are fully matching.
    */
  def prune(stats: TableStats, scan: Array[Int], fully: Array[Int], k: Long,
            shapeSupported: Boolean): LimitPruneResult = {
    if (scan.length <= 1)
      new LimitPruneResult(stats, scan, LimitOutcome.AlreadyMinimal)
    else if (!shapeSupported)
      new LimitPruneResult(stats, scan, LimitOutcome.Unsupported(shapeBlocked = true))
    else {
      val rows = stats.rowCount
      var coverage = 0L
      fully.foreach(i => coverage += rows(i))
      if (coverage < k)
        new LimitPruneResult(stats, scan, LimitOutcome.Unsupported(shapeBlocked = false))
      else {
        // Greedy by descending row count (stable) yields the minimal
        // partition count.
        val byRows = fully.toSeq.sortBy(i => -rows(i))
        var n = 0
        var acc = 0L
        while (acc < k && n < byRows.length) { acc += rows(byRows(n)); n += 1 }
        new LimitPruneResult(stats, byRows.take(n).toArray, LimitOutcome.Pruned(n))
      }
    }
  }

  /** Table 2 bucket for an outcome. k=0 prunes to zero partitions, which the
    * paper folds into the "pruning to = 1 partition" row (mostly 1).
    */
  def bucket(outcome: LimitOutcome): String = outcome match {
    case LimitOutcome.AlreadyMinimal  => "already minimal scan set"
    case LimitOutcome.Unsupported(_)  => "unsupported shapes"
    case LimitOutcome.Pruned(n) if n <= 1 => "pruning to = 1 partition"
    case LimitOutcome.Pruned(_)       => "pruning to > 1 partitions"
  }
}
