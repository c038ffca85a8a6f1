package repro.core

import repro.meta.{ColumnArrays, PartitionMeta, Scalar, TableStats, ValueRange}

/** §6 — partition pruning for JOIN queries (coarse-grained sideways
  * information passing).
  *
  * During the hash join's build phase the build-side join-key values are
  * summarized into a compact structure; the summary is "shipped" to the
  * probe side and overlapped with each probe micro-partition's min/max
  * metadata. Partitions that cannot contain joinable tuples are pruned
  * before they are loaded.
  *
  * The summary trades accuracy for size (it must cross the network in a
  * real deployment): we implement the spectrum the paper sketches, from a
  * single global min/max range up to an exact sorted set, with the bounded
  * *range set* in between — a fixed number of intervals obtained by cutting
  * the sorted distinct values at the largest gaps. All variants are
  * conservative: they may fail to prune a prunable partition, never the
  * converse.
  */
object JoinPruner {

  sealed trait BuildSummary extends Serializable {
    /** May the build side contain a value inside `range`? */
    def mayOverlap(range: ValueRange): Boolean
    /** Approximate serialized size, to reason about the accuracy/size trade-off. */
    def sizeBytes: Long
    /** The summary's intervals unboxed, when every bound is a long and the
      * intervals are sorted and disjoint; else null.
      */
    private[core] def longs: LongIntervals
  }

  /** Sorted, disjoint intervals `[lo(j), hi(j)]` of longs. */
  private[core] final class LongIntervals(val lo: Array[Long], val hi: Array[Long]) {
    /** Does some interval meet `[mn, mx]`? The first interval ending at or
      * after `mn` is the only candidate, as the intervals are sorted.
      */
    def overlaps(mn: Long, mx: Long): Boolean = {
      var a = 0; var b = hi.length
      while (a < b) {
        val mid = (a + b) >>> 1
        if (hi(mid) < mn) a = mid + 1 else b = mid
      }
      a < hi.length && lo(a) <= mx
    }
  }

  private object LongIntervals {
    /** The intervals `[min(j), max(j)]`, `j < n`, unboxed; null unless every
      * bound is a long and the intervals are sorted and disjoint.
      */
    def of(n: Int, min: Int => Scalar, max: Int => Scalar): LongIntervals = {
      val lo = new Array[Long](n)
      val hi = new Array[Long](n)
      var j = 0
      while (j < n) {
        (min(j), max(j)) match {
          case (Scalar.LongV(a), Scalar.LongV(b)) if a <= b && (j == 0 || hi(j - 1) < a) =>
            lo(j) = a; hi(j) = b
          case _ => return null
        }
        j += 1
      }
      new LongIntervals(lo, hi)
    }
  }

  /** Empty build side: nothing can join; every probe partition is pruned. */
  case object EmptySummary extends BuildSummary {
    def mayOverlap(range: ValueRange): Boolean = false
    def sizeBytes: Long = 0L
    private[core] val longs: LongIntervals = new LongIntervals(Array.emptyLongArray, Array.emptyLongArray)
  }

  final case class MinMaxSummary(range: ValueRange) extends BuildSummary {
    def mayOverlap(r: ValueRange): Boolean = range.overlaps(r)
    def sizeBytes: Long = 16L
    private[core] lazy val longs: LongIntervals = LongIntervals.of(1, _ => range.min, _ => range.max)
  }

  /** Disjoint value ranges, ascending. Built from long keys, the ranges are
    * kept unboxed and `ranges` is built on first read.
    */
  final class RangeSetSummary private[JoinPruner] (boxed: Vector[ValueRange], unboxed: LongIntervals) extends BuildSummary {
    lazy val ranges: Vector[ValueRange] =
      if (boxed != null) boxed
      else Vector.tabulate(unboxed.lo.length)(j => ValueRange(Scalar.LongV(unboxed.lo(j)), Scalar.LongV(unboxed.hi(j))))
    def mayOverlap(r: ValueRange): Boolean = ranges.exists(_.overlaps(r))
    def sizeBytes: Long = 16L * (if (boxed != null) boxed.size else unboxed.lo.length)
    private[core] lazy val longs: LongIntervals =
      if (unboxed != null) unboxed else LongIntervals.of(boxed.size, boxed(_).min, boxed(_).max)
    override def equals(o: Any): Boolean = o match {
      case r: RangeSetSummary => ranges == r.ranges
      case _                  => false
    }
    override def hashCode: Int = ranges.##
    override def toString: String = s"RangeSetSummary($ranges)"
  }

  object RangeSetSummary {
    def apply(ranges: Vector[ValueRange]): RangeSetSummary = new RangeSetSummary(ranges, null)
  }

  /** The build side's distinct values, ascending. Built from long keys, the
    * values are kept unboxed and `sorted` is built on first read.
    */
  final class ExactSetSummary private[JoinPruner] (boxed: Vector[Scalar], points: Array[Long]) extends BuildSummary {
    lazy val sorted: Vector[Scalar] =
      if (boxed != null) boxed else Vector.tabulate(points.length)(j => Scalar.LongV(points(j)))
    def mayOverlap(r: ValueRange): Boolean = {
      // Binary search for the first element >= r.min, then check <= r.max.
      var lo = 0; var hi = sorted.size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (Scalar.lt(sorted(mid), r.min).contains(true)) lo = mid + 1 else hi = mid
      }
      lo < sorted.size && Scalar.lte(sorted(lo), r.max).contains(true)
    }
    def sizeBytes: Long = 8L * (if (boxed != null) boxed.size else points.length)
    private[core] lazy val longs: LongIntervals =
      if (points != null) new LongIntervals(points, points) else LongIntervals.of(boxed.size, boxed, boxed)
    override def equals(o: Any): Boolean = o match {
      case e: ExactSetSummary => sorted == e.sorted
      case _                  => false
    }
    override def hashCode: Int = sorted.##
    override def toString: String = s"ExactSetSummary($sorted)"
  }

  object ExactSetSummary {
    def apply(sorted: Vector[Scalar]): ExactSetSummary = new ExactSetSummary(sorted, null)
  }

  /** Build a summary from the build side's join-key values.
    *
    * @param maxRanges summary budget: number of intervals kept. Values
    *                  beyond the budget are merged across the smallest gaps,
    *                  so the summary loses precision exactly where it costs
    *                  least. `Int.MaxValue` yields an exact set.
    */
  def summarize(values: IterableOnce[Scalar], maxRanges: Int = 64): BuildSummary = {
    val all = values.iterator.toArray
    val longs = new Array[Long](all.length)
    var i = 0
    var allLongs = true
    while (allLongs && i < all.length) {
      all(i) match {
        case Scalar.LongV(v) => longs(i) = v
        case _               => allLongs = false
      }
      i += 1
    }
    if (allLongs) fromLongs(longs, maxRanges) else summarizeScalars(all, maxRanges)
  }

  /** [[summarize]] over unboxed long keys; `keys` is left as it is. */
  def summarizeLongs(keys: Array[Long], maxRanges: Int = 64): BuildSummary =
    fromLongs(keys.clone(), maxRanges)

  /** The summary of `longs`, which it sorts and de-duplicates in place,
    * built from the unboxed values.
    */
  private def fromLongs(longs: Array[Long], maxRanges: Int): BuildSummary = {
    java.util.Arrays.sort(longs)
    var n = 0
    var i = 0
    while (i < longs.length) {
      if (n == 0 || longs(n - 1) != longs(i)) { longs(n) = longs(i); n += 1 }
      i += 1
    }
    if (n == 0) EmptySummary
    else intervalStarts(n, j => longs(j).toDouble - longs(j - 1).toDouble, maxRanges) match {
      case null => new ExactSetSummary(null, java.util.Arrays.copyOf(longs, n))
      case starts =>
        val lo = starts.map(longs(_))
        val hi = Array.tabulate(starts.length)(c => longs(intervalEnd(starts, c, n)))
        if (starts.length == 1) MinMaxSummary(ValueRange(Scalar.LongV(lo(0)), Scalar.LongV(hi(0))))
        else new RangeSetSummary(null, new LongIntervals(lo, hi))
    }
  }

  /** [[summarize]] over boxed values of any type family. */
  private def summarizeScalars(values: IterableOnce[Scalar], maxRanges: Int): BuildSummary = {
    val sorted = values.iterator.toVector.distinct.sortWith((a, b) => Scalar.lt(a, b).contains(true))
    val n = sorted.size
    def gap(j: Int): Double = {
      val w = for { a <- Scalar.asDouble(sorted(j - 1)); b <- Scalar.asDouble(sorted(j)) } yield b - a
      w.getOrElse(0.0)
    }
    if (n == 0) EmptySummary
    else intervalStarts(n, gap, maxRanges) match {
      case null => ExactSetSummary(sorted)
      case starts =>
        val ranges = Vector.tabulate(starts.length)(c => ValueRange(sorted(starts(c)), sorted(intervalEnd(starts, c, n))))
        if (starts.length == 1) MinMaxSummary(ranges.head) else RangeSetSummary(ranges)
    }
  }

  /** The shape of the summary of `n > 0` sorted distinct values, `gap(j)`
    * being the width between values `j - 1` and `j`: null for an exact set,
    * else the positions where its intervals start, ascending from 0 — one
    * interval, the min/max summary, when `maxRanges <= 1`.
    */
  private def intervalStarts(n: Int, gap: Int => Double, maxRanges: Int): Array[Int] =
    if (maxRanges == Int.MaxValue) null
    else if (maxRanges <= 1) Array(0)
    else if (n <= maxRanges) null
    // Keep the (maxRanges - 1) largest gaps as cuts between intervals.
    else 0 +: largestGaps(n, gap, maxRanges - 1)

  /** The position of the last value of interval `c` of `starts` over `n` values. */
  private def intervalEnd(starts: Array[Int], c: Int, n: Int): Int =
    (if (c + 1 < starts.length) starts(c + 1) else n) - 1

  /** The positions `j` in `1 until n` of the `m < n` largest gaps, ascending.
    * Equal gaps go to the lower position first: the choice of a stable sort
    * by decreasing gap, made with one sort of the unboxed gaps.
    */
  private def largestGaps(n: Int, gap: Int => Double, m: Int): Array[Int] = {
    // Decreasing gap is increasing `-gap` in Double.compare's total order.
    val key = Array.tabulate(n - 1)(j => -gap(j + 1))
    val sorted = key.clone()
    java.util.Arrays.sort(sorted)
    val t = sorted(m - 1)
    var ties = m
    key.foreach(k => if (java.lang.Double.compare(k, t) < 0) ties -= 1)
    val cuts = new Array[Int](m)
    var c = 0
    var j = 0
    while (c < m) {
      val cmp = java.lang.Double.compare(key(j), t)
      if (cmp < 0 || (cmp == 0 && ties > 0)) {
        if (cmp == 0) ties -= 1
        cuts(c) = j + 1; c += 1
      }
      j += 1
    }
    cuts
  }

  final case class JoinPruneResult(
      scanSet: Seq[PartitionMeta],
      prunedCount: Int,
      total: Int,
      summary: BuildSummary) {
    def pruningRatio: Double = if (total == 0) 0.0 else prunedCount.toDouble / total
  }

  /** Prune probe-side partitions whose join-key min/max overlaps nothing in
    * the build summary. Partitions with unknown stats are kept (no false
    * negatives); all-null key partitions are pruned — NULL never joins.
    */
  def pruneProbe(probeParts: Seq[PartitionMeta], joinCol: String,
                 summary: BuildSummary): JoinPruneResult = {
    val stats = TableStats.ofSeq(probeParts)
    val kept = pruneProbe(stats, stats.allIndices, joinCol, summary)
    JoinPruneResult(kept.iterator.map(stats.metas).toVector, probeParts.size - kept.length, probeParts.size, summary)
  }

  /** The positions among `indices` of the partitions of `stats` that may
    * join, in their given order. Long keys against a long summary compare
    * unboxed; every other pairing goes through [[mayJoin]].
    */
  def pruneProbe(stats: TableStats, indices: Array[Int], joinCol: String,
                 summary: BuildSummary): Array[Int] = {
    val kept = new Array[Int](indices.length)
    var n = 0
    val col = stats.column(joinCol)
    (col, summary.longs) match {
      case (keys: ColumnArrays.Longs, longs) if !keys.dates && longs != null =>
        var j = 0
        while (j < indices.length) {
          val i = indices(j)
          val keep =
            if (keys.state(i) == ColumnArrays.Ranged) longs.overlaps(keys.min(i), keys.max(i))
            else mayJoin(keys, i, summary)
          if (keep) { kept(n) = i; n += 1 }
          j += 1
        }
      case _ =>
        indices.foreach(i => if (mayJoin(col, i, summary)) { kept(n) = i; n += 1 })
    }
    java.util.Arrays.copyOf(kept, n)
  }

  /** May partition `i` of the join column `col` hold a key that joins? */
  private def mayJoin(col: ColumnArrays, i: Int, summary: BuildSummary): Boolean = col.state(i) match {
    case ColumnArrays.Ranged  => summary.mayOverlap(ValueRange(col.bound(i, max = false), col.bound(i, max = true)))
    case ColumnArrays.NoRange => false // all NULL keys
    case _                    => true  // missing stats: keep
  }
}
