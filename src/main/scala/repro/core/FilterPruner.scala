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

/** Result of filter pruning over partitions of one [[TableStats]]: the
  * partitions at `indices`, of which `indices(from + j)` has class byte
  * `classes(j)` and every one outside the window of `classes` is not
  * matching; or no class bytes when no predicate ran, in which case each
  * non-empty partition is fully matching and each empty one not matching.
  * `scanIndices` and `fullyIndices` are positions in `stats.metas`, in
  * classification order; `fullyIndices` and the record views (`partitions`,
  * `scanSet`, `fullyMatching`) are built on first use.
  *
  * The position arrays may be shared with other results over the same stats
  * (see [[TableStats]]): callers read them and never write into them.
  */
final class FilterPruneResult private (val stats: TableStats, indices: Array[Int], from: Int, classes: Array[Byte]) {
  import FilterPruneResult._

  /** Classified partitions in the scan set (partially or fully matching). */
  val scanIndices: Array[Int] = if (classes == null) stats.nonEmptyIndices else select(Partial)
  /** Classified partitions certified fully matching (§4.2). */
  lazy val fullyIndices: Array[Int] = if (classes == null) stats.nonEmptyIndices else select(Fully)

  def total: Int = indices.length
  def scanCount: Int = scanIndices.length
  def prunedCount: Int = total - scanCount
  def pruningRatio: Double = if (total == 0) 0.0 else prunedCount.toDouble / total

  lazy val partitions: Seq[ClassifiedPartition] =
    Vector.tabulate(total)(j => ClassifiedPartition(stats.metas(indices(j)), matchClass(classAt(j))))
  lazy val scanSet: Seq[PartitionMeta]       = scanIndices.iterator.map(stats.metas).toVector
  lazy val fullyMatching: Seq[PartitionMeta] = fullyIndices.iterator.map(stats.metas).toVector

  private def classAt(j: Int): Byte =
    if (classes == null) { if (stats.rowCount(indices(j)) == 0) Not else Fully }
    else if (j >= from && j - from < classes.length) classes(j - from)
    else Not

  /** The classified indices whose class is at least `min`. */
  private def select(min: Byte): Array[Int] = {
    var n = 0
    var j = 0
    while (j < classes.length) { if (classes(j) >= min) n += 1; j += 1 }
    val out = new Array[Int](n)
    n = 0; j = 0
    while (j < classes.length) { if (classes(j) >= min) { out(n) = indices(from + j); n += 1 }; j += 1 }
    out
  }
}

object FilterPruneResult {
  /** Class bytes, ordered so that "in the scan set" is `>= Partial`. */
  private[core] final val Not: Byte     = 0
  private[core] final val Partial: Byte = 1
  private[core] final val Fully: Byte   = 2

  private def matchClass(b: Byte): MatchClass = b match {
    case Not     => MatchClass.NotMatching
    case Partial => MatchClass.PartiallyMatching
    case _       => MatchClass.FullyMatching
  }

  private def code(c: MatchClass): Byte = c match {
    case MatchClass.NotMatching       => Not
    case MatchClass.PartiallyMatching => Partial
    case MatchClass.FullyMatching     => Fully
  }

  /** `classes(j)` is the class of partition `indices(from + j)` of `stats`,
    * and every other partition at `indices` is not matching; null classes
    * stand for the classes without a predicate.
    */
  private[core] def of(stats: TableStats, indices: Array[Int], from: Int, classes: Array[Byte]): FilterPruneResult =
    new FilterPruneResult(stats, indices, from, classes)

  /** A result over the given classified records, in their order. */
  def apply(partitions: Seq[ClassifiedPartition]): FilterPruneResult = {
    val stats = TableStats.of(partitions.iterator.map(_.meta).toVector)
    new FilterPruneResult(stats, stats.allIndices, 0, partitions.iterator.map(p => code(p.cls)).toArray)
  }
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
  *
  * `classify` evaluates the predicate only inside its window
  * ([[RangeEval.Bound.window]]), the positions outside which it cannot be
  * TRUE, and leaves every partition outside not matching. That is exact:
  * outside the window some AND conjunct compares a long or date column with
  * a literal that no range there reaches — each ranged partition's running
  * bound lies on the far side of it, and every other partition is all NULL
  * or empty — so that conjunct, and with it the AND, has no TRUE outcome,
  * and dense classification would prune the partition too.
  */
object FilterPruner {
  import FilterPruneResult.{Fully, Not, Partial}

  def classify(stats: TableStats, pred: PExpr): FilterPruneResult = {
    val bound = RangeEval.bind(pred, stats)
    val w = bound.window
    classified(stats, bound, stats.allIndices, w.start, w.end)
  }

  /** Classify only the partitions of `stats` at `indices`, in that order. */
  def classifyAt(stats: TableStats, pred: PExpr, indices: Array[Int]): FilterPruneResult =
    classified(stats, RangeEval.bind(pred, stats), indices, 0, indices.length)

  /** Classify the partitions at `indices(from until until)`; the others at
    * `indices` are not matching. The predicate is evaluated over the window
    * in one batch, whose outcome bytes become the class bytes in place.
    */
  private def classified(stats: TableStats, bound: RangeEval.Bound, indices: Array[Int],
                         from: Int, until: Int): FilterPruneResult = {
    val classes = new Array[Byte](until - from)
    bound.outcomesAt(indices, from, until, classes)
    val rows = stats.rowCount
    var j = 0
    while (j < classes.length) {
      val o = classes(j)
      classes(j) =
        if (rows(indices(from + j)) == 0 || (o & RangeEval.T) == 0) Not
        else if (o == RangeEval.T) Fully
        else Partial
      j += 1
    }
    FilterPruneResult.of(stats, indices, from, classes)
  }

  def classify(parts: Seq[PartitionMeta], pred: PExpr): FilterPruneResult =
    classify(TableStats.ofSeq(parts), pred)

  /** A query without predicates scans everything; every non-empty partition
    * is trivially fully-matching (§4.2). Its scan and fully-matching sets
    * are both the table's non-empty partitions, shared by every such query.
    */
  def noPredicate(stats: TableStats): FilterPruneResult =
    FilterPruneResult.of(stats, stats.allIndices, 0, null)

  def noPredicate(parts: Seq[PartitionMeta]): FilterPruneResult = noPredicate(TableStats.ofSeq(parts))

  def classifyOpt(stats: TableStats, pred: Option[PExpr]): FilterPruneResult =
    pred match {
      case Some(p) => classify(stats, p)
      case None    => noPredicate(stats)
    }

  def classifyOpt(parts: Seq[PartitionMeta], pred: Option[PExpr]): FilterPruneResult =
    classifyOpt(TableStats.ofSeq(parts), pred)
}
