package repro.core

import scala.collection.mutable
import repro.meta.{ColumnArrays, PartitionMeta, Scalar, TableStats}

/** Data access the top-k pruner needs: metadata plus the rows as typed
  * columns. Implemented by the in-memory simulator tables.
  */
trait PartitionData extends Columns {
  def meta: PartitionMeta
}

/** §5 — runtime pruning for top-k queries.
  *
  * The smallest element of the k-sized heap ([[BoundaryHeap]]) is the
  * *boundary value*; before scanning a micro-partition its metadata is
  * compared against the boundary and the partition is skipped when none of
  * its rows could enter the heap.
  * Enhancements implemented here:
  *
  *  - §5.3 processing order: scan partitions in descending max order (for
  *    DESC queries) so a tight boundary forms early; a random order is the
  *    baseline the paper compares against (Figure 8).
  *  - §5.4 upfront boundary initialization from fully-matching partitions:
  *    the stricter of (a) the k-th largest partition max and (b) the
  *    largest min whose cumulative row count reaches k.
  */
object TopKPruner {

  sealed trait OrderStrategy extends Product with Serializable
  object OrderStrategy {
    /** Paper's "none/random" baseline. */
    final case class RandomOrder(seed: Long) extends OrderStrategy
    /** Paper's "full sort" — by partition max (DESC) / min (ASC). */
    case object SortByBoundaryPotential extends OrderStrategy
  }

  final case class TopKQuery(
      orderCol: String,
      k: Int,
      desc: Boolean = true,
      pred: Option[PExpr] = None,
      strategy: OrderStrategy = OrderStrategy.SortByBoundaryPotential,
      upfrontInit: Boolean = true)

  /** One qualifying row kept in the heap: its order value plus an opaque
    * reference the caller can use to materialize the full row.
    */
  final case class HeapRow(orderValue: Option[Scalar], partitionId: Int, rowIndex: Int)

  final case class TopKResult(
      rows: Seq[HeapRow],               // final top-k, best first
      partitionsTotal: Int,             // scan set entering top-k pruning
      partitionsScanned: Int,
      partitionsSkipped: Int,           // skipped via boundary comparison
      rowsScanned: Long,
      initialBoundary: Option[Scalar]) {
    def pruningRatio: Double =
      if (partitionsTotal == 0) 0.0 else partitionsSkipped.toDouble / partitionsTotal
  }

  /** Execute top-k over an already filter-pruned scan set.
    *
    * @param scanSet    partitions surviving filter pruning, with data access
    * @param filtered   the filter-pruning classification (provides the
    *                   fully-matching partitions for upfront init)
    */
  def run(scanSet: Seq[PartitionData], filtered: FilterPruneResult, q: TopKQuery): TopKResult = {
    val parts = scanSet.toIndexedSeq
    val stats = TableStats.of(parts.map(_.meta))
    run(stats, stats.allIndices, parts, filtered, q, null)
  }

  /** [[run]] over the partitions of `stats` at `indices`, in that order;
    * `part(i)` gives partition `i`'s rows. `qualifier(p)` says which rows of
    * a scanned partition `p` qualify beyond `q.pred` (null: every row), e.g.
    * join-probe membership (shape 7b). The predicate is bound to each
    * scanned partition's columns once, and each qualifying non-NULL row is
    * offered to the heap ([[BoundaryHeap.offer]]).
    */
  def run(stats: TableStats, indices: Array[Int], part: Int => PartitionData,
          filtered: FilterPruneResult, q: TopKQuery,
          qualifier: PartitionData => (Int => Boolean)): TopKResult = {
    val ordered = q.strategy match {
      case OrderStrategy.RandomOrder(seed) =>
        new scala.util.Random(seed).shuffle(indices.toSeq).toArray
      case OrderStrategy.SortByBoundaryPotential =>
        processingOrder(stats, indices, q.orderCol, q.desc)
    }

    val initBoundary = if (q.upfrontInit) upfrontBoundary(filtered.stats, filtered.fullyIndices, q) else None
    val orderZones = stats.column(q.orderCol)
    // Each value is tagged with its partition id (high half) and row index.
    val heap = new BoundaryHeap(q.k, q.desc, initBoundary.orNull)
    val nullRows = mutable.ArrayBuffer.empty[HeapRow] // NULLS LAST backfill

    var scanned = 0
    var skipped = 0
    var rowsScanned = 0L

    ordered.foreach { i =>
      if (heap.shouldSkip(best(orderZones, i, q.desc))) skipped += 1
      else {
        scanned += 1
        val p = part(i)
        rowsScanned += p.rowCount
        val pred = q.pred.map(RowEval.bind(_, p)).orNull
        val qualifies = if (qualifier == null) null else qualifier(p)
        val col = p.column(q.orderCol)
        val id = stats.ids(i)
        var r = 0
        while (r < p.rowCount) {
          if ((pred == null || pred.passes(r)) && (qualifies == null || qualifies(r))) {
            if (col == null || col.isNull(r)) {
              if (nullRows.size < q.k) nullRows += HeapRow(None, id, r)
            } else heap.offer(col, r, id.toLong << 32 | r)
          }
          r += 1
        }
      }
    }

    TopKResult(new KeptRows(heap.drain(), nullRows, q.k), ordered.length, scanned, skipped, rowsScanned, initBoundary)
  }

  /** The drained rows, best first, then the NULL rows (NULLS LAST), at most
    * `k` in all; each [[HeapRow]] is built when read.
    */
  private final class KeptRows(kept: BoundaryHeap.Drained, nullRows: mutable.ArrayBuffer[HeapRow], k: Int)
      extends scala.collection.immutable.AbstractSeq[HeapRow] with IndexedSeq[HeapRow] {
    val length: Int = math.max(0, math.min(k, kept.size + nullRows.size))
    def apply(j: Int): HeapRow =
      if (j < 0 || j >= length) throw new IndexOutOfBoundsException(s"$j is out of bounds (length $length)")
      else if (j >= kept.size) nullRows(j - kept.size)
      else { val tag = kept.tags(j); HeapRow(Some(kept.values(j)), (tag >>> 32).toInt, tag.toInt) }
  }

  /** §5.3 processing order of the partitions of `stats` at `indices`: best
    * boundary potential first (largest max for DESC, smallest min for ASC),
    * then the partitions without a range on `orderCol` (all NULL, empty or
    * lacking the column). A stable index sort over the column's zone-map
    * arrays: ties keep their order in `indices`.
    */
  def processingOrder(stats: TableStats, indices: Array[Int], orderCol: String, desc: Boolean): Array[Int] =
    sortByZone(stats.column(orderCol), indices, max = desc, desc)

  /** `indices` in a stable sort by each partition's max (if `max`) or min,
    * largest first if `desc`, smallest first if not, then the partitions
    * without a range.
    */
  private def sortByZone(col: ColumnArrays, indices: Array[Int], max: Boolean, desc: Boolean): Array[Int] = {
    val sign = if (desc) 1 else -1
    // Negative when partition i's key is strictly better than j's.
    val cmp: (Int, Int) => Int = col match {
      case c: ColumnArrays.Longs =>
        val k = if (max) c.max else c.min
        (i, j) => -sign * java.lang.Long.compare(k(i), k(j))
      case c: ColumnArrays.Doubles =>
        val k = if (max) c.max else c.min
        (i, j) => -sign * Scalar.compareDoubles(k(i), k(j))
      case c: ColumnArrays.Strings =>
        val k = if (max) c.max else c.min
        (i, j) => -sign * Integer.signum(Scalar.compareStrings(k(i), k(j)))
      case c: ColumnArrays.Bools =>
        val k = if (max) c.max else c.min
        (i, j) => -sign * java.lang.Boolean.compare(k(i), k(j))
      case c: ColumnArrays.Scalars =>
        // Incomparable families tie, as in a sort by `better`.
        val k = if (max) c.max else c.min
        def better(a: Scalar, b: Scalar) = Scalar.compare(a, b).exists(_ * sign > 0)
        (i, j) => if (better(k(i), k(j))) -1 else if (better(k(j), k(i))) 1 else 0
    }
    val order: Array[Integer] = indices.map(Integer.valueOf)
    // TimSort is stable.
    java.util.Arrays.sort(order, (x: Integer, y: Integer) => {
      val rx = col.state(x) == ColumnArrays.Ranged
      val ry = col.state(y) == ColumnArrays.Ranged
      if (rx && ry) cmp(x, y) else if (rx) -1 else if (ry) 1 else 0
    })
    order.map(_.intValue)
  }

  /** The best value of partition `i` in its order column's zone maps `col`
    * (its max for DESC, min for ASC); null when the column has no range there
    * (all NULL, empty or absent).
    */
  def best(col: ColumnArrays, i: Int, desc: Boolean): Scalar =
    if (col.state(i) == ColumnArrays.Ranged) col.bound(i, max = desc) else null

  /** §5.4 — initial boundary from the metadata of the fully-matching
    * partitions of `stats` at `fullyIndices`: the stricter of two
    * candidates, each read off a sort of the partitions' zone maps.
    */
  def upfrontBoundary(stats: TableStats, fullyIndices: Array[Int], q: TopKQuery): Option[Scalar] = {
    if (q.k <= 0) return None
    val col = stats.column(q.orderCol)
    // Partitions without rows or without a range give no candidate.
    val ranged = fullyIndices.filter(i => stats.rowCount(i) > 0 && col.state(i) == ColumnArrays.Ranged)

    // Candidate 1: k-th best partition extreme (each partition attains its
    // max/min on at least one qualifying row).
    val byBest = sortByZone(col, ranged, max = q.desc, q.desc)
    val cand1 = if (byBest.length >= q.k) Some(col.bound(byBest(q.k - 1), max = q.desc)) else None

    // Candidate 2: sort by the opposite extreme (min for DESC), best first;
    // all rows of a partition are at or above its min, so once cumulative
    // non-null row count reaches k, that partition's min bounds the k-th row.
    val byOpposite = sortByZone(col, ranged, max = !q.desc, q.desc)
    var acc = 0L
    var cand2: Option[Scalar] = None
    var j = 0
    while (cand2.isEmpty && j < byOpposite.length) {
      val i = byOpposite(j)
      val nonNull = stats.rowCount(i) - col.nullCount(i)
      if (nonNull > 0) {
        acc += nonNull
        if (acc >= q.k) cand2 = Some(col.bound(i, max = !q.desc))
      }
      j += 1
    }

    (cand1, cand2) match {
      case (Some(a), Some(b)) => Some(if (Scalar.compare(a, b).exists(c => if (q.desc) c > 0 else c < 0)) a else b)
      case (a, b)             => a.orElse(b)
    }
  }

  /** [[upfrontBoundary]] over partition records. */
  def upfrontBoundary(fullyMatching: Seq[PartitionMeta], q: TopKQuery): Option[Scalar] = {
    val stats = TableStats.ofSeq(fullyMatching)
    upfrontBoundary(stats, stats.allIndices, q)
  }
}
