package repro.core

import repro.meta.{PartitionMeta, TableStats}

/** Classification of one micro-partition against a query predicate (§4.1):
  * `NotMatching` partitions are pruned, `PartiallyMatching` stay in the scan
  * set, and `FullyMatching` partitions are guaranteed to contain only
  * qualifying rows (a subset of partially-matching).
  */
sealed trait MatchClass extends Product with Serializable
object MatchClass {
  case object NotMatching       extends MatchClass
  case object PartiallyMatching extends MatchClass
  case object FullyMatching     extends MatchClass
}

final case class ClassifiedPartition(meta: PartitionMeta, cls: MatchClass) {
  def inScanSet: Boolean     = cls != MatchClass.NotMatching
  def fullyMatching: Boolean = cls == MatchClass.FullyMatching
}

/** Result of filter pruning over a table's partitions. */
final case class FilterPruneResult(partitions: Seq[ClassifiedPartition]) {
  def total: Int = partitions.size
  lazy val scanSet: Seq[PartitionMeta]       = partitions.filter(_.inScanSet).map(_.meta)
  lazy val fullyMatching: Seq[PartitionMeta] = partitions.filter(_.fullyMatching).map(_.meta)
  def prunedCount: Int = partitions.count(!_.inScanSet)
  def pruningRatio: Double = if (total == 0) 0.0 else prunedCount.toDouble / total
}

/** §3 compile-time filter pruning + §4.2 fully-matching detection, in one
  * evaluation of the predicate per partition.
  *
  * A partition where TRUE is not a possible outcome cannot contain matching
  * rows and is pruned. A partition where TRUE is the *only* possible outcome
  * is fully-matching: this is the paper's second pass over the inverted
  * predicate `p IS NOT TRUE` (whose TRUE outcomes are p's FALSE and NULL
  * ones), read off the same outcome set. Partitions with zero rows are
  * vacuously not-matching.
  */
object FilterPruner {

  def classify(stats: TableStats, pred: PExpr): FilterPruneResult =
    classifyAt(stats, pred, stats.metas.indices)

  /** Classify only the partitions of `stats` at `indices`. */
  def classifyAt(stats: TableStats, pred: PExpr, indices: Seq[Int]): FilterPruneResult = {
    val bound = RangeEval.bind(pred, stats)
    FilterPruneResult(indices.map { i =>
      val cls =
        if (stats.rowCount(i) == 0) MatchClass.NotMatching
        else {
          val o = bound.outcomes(i)
          if ((o & RangeEval.T) == 0) MatchClass.NotMatching
          else if (o == RangeEval.T) MatchClass.FullyMatching
          else MatchClass.PartiallyMatching
        }
      ClassifiedPartition(stats.metas(i), cls)
    })
  }

  def classify(parts: Seq[PartitionMeta], pred: PExpr): FilterPruneResult =
    classify(TableStats.ofSeq(parts), pred)

  /** A query without predicates scans everything; every non-empty partition
    * is trivially fully-matching (§4.2).
    */
  def noPredicate(parts: Seq[PartitionMeta]): FilterPruneResult =
    FilterPruneResult(parts.map { meta =>
      val cls = if (meta.rowCount == 0) MatchClass.NotMatching else MatchClass.FullyMatching
      ClassifiedPartition(meta, cls)
    })

  def classifyOpt(stats: TableStats, pred: Option[PExpr]): FilterPruneResult =
    pred.map(classify(stats, _)).getOrElse(noPredicate(stats.metas))

  def classifyOpt(parts: Seq[PartitionMeta], pred: Option[PExpr]): FilterPruneResult =
    pred.map(classify(parts, _)).getOrElse(noPredicate(parts))
}
