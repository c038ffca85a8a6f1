package repro.meta

import repro.core.ColumnVec

/** Zone-map / SMA record for one column of one micro-partition:
  * min, max over non-null values, plus the null count.
  *
  * `min`/`max` are None iff every value is null (or the partition is empty).
  * The null count is what enables `IS NULL` pruning and is a prerequisite
  * for declaring a comparison predicate *all-true* on a partition (§4.2):
  * a partition with nulls can never be fully-matching for `x > 5`.
  */
final case class ColumnStats(min: Option[Scalar], max: Option[Scalar], nullCount: Long)

/** Per-partition metadata: identifier, row count and per-column stats.
  * This is the record the paper's metadata service serves to the pruner.
  */
final case class PartitionMeta(id: Int, rowCount: Long, cols: Map[String, ColumnStats]) {
  def col(name: String): Option[ColumnStats] = cols.get(name)
}

/** One column's zone maps over every partition of a table, as arrays indexed
  * by partition position. `state(i)` says whether partition `i` lacks the
  * column ([[ColumnArrays.Absent]]), has it without min/max — all null or
  * empty ([[ColumnArrays.NoRange]]) — or has a min/max range
  * ([[ColumnArrays.Ranged]]); `min`/`max` are meaningful only for the last.
  * The subclass is the type family of every range in the column; a column
  * whose ranges mix families keeps boxed [[Scalar]]s. Built only by
  * [[ColumnArrays.of]].
  */
sealed abstract class ColumnArrays(val state: Array[Byte], val nullCount: Array[Long]) {
  /** Partition `i`'s max if `max`, else its min, boxed; `i` must be ranged. */
  def bound(i: Int, max: Boolean): Scalar

  /** Partition `i`'s record of the column, or None if it lacks the column. */
  def statsAt(i: Int): Option[ColumnStats] = state(i) match {
    case ColumnArrays.Absent  => None
    case ColumnArrays.NoRange => Some(ColumnStats(None, None, nullCount(i)))
    case _                    => Some(ColumnStats(Some(bound(i, max = false)), Some(bound(i, max = true)), nullCount(i)))
  }
}

object ColumnArrays {
  final val Absent: Byte  = 0
  final val NoRange: Byte = 1
  final val Ranged: Byte  = 2

  import Scalar._

  /** Long values, or date days when `dates`. */
  final class Longs private[ColumnArrays] (state: Array[Byte], nullCount: Array[Long], val dates: Boolean,
                                           val min: Array[Long], val max: Array[Long]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = {
      val v = if (max) this.max(i) else min(i)
      if (dates) DateV(v.toInt) else LongV(v)
    }

    @volatile private var runningCache: Option[RunningBounds] = _

    /** The column's [[RunningBounds]] in a table with these row counts, built
      * on first use; None if some partition may hold a non-NULL value outside
      * every range: it lacks the column, or has no range but fewer NULLs than
      * rows.
      */
    def running(rowCount: Array[Long]): Option[RunningBounds] = {
      var r = runningCache
      if (r == null) { r = RunningBounds.of(this, rowCount); runningCache = r }
      r
    }
  }
  final class Doubles private[ColumnArrays] (state: Array[Byte], nullCount: Array[Long],
                                             val min: Array[Double], val max: Array[Double]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = DoubleV(if (max) this.max(i) else min(i))
  }
  final class Strings private[ColumnArrays] (state: Array[Byte], nullCount: Array[Long],
                                             val min: Array[String], val max: Array[String]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = StringV(if (max) this.max(i) else min(i))
  }
  final class Bools private[ColumnArrays] (state: Array[Byte], nullCount: Array[Long],
                                           val min: Array[Boolean], val max: Array[Boolean]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = BoolV(if (max) this.max(i) else min(i))
  }
  final class Scalars private[ColumnArrays] (state: Array[Byte], nullCount: Array[Long],
                                             val min: Array[Scalar], val max: Array[Scalar]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = if (max) this.max(i) else min(i)
  }

  /** The column whose partitions have these states and null counts and,
    * where ranged, the bounds `mins(i)` and `maxs(i)`. A min and a max
    * vector of one typed family are kept without a copy, dates widened to
    * long days; boxed vectors, or a min and a max of different families,
    * give [[Scalars]].
    */
  def of(state: Array[Byte], nullCount: Array[Long], mins: ColumnVec, maxs: ColumnVec): ColumnArrays =
    (mins, maxs) match {
      case (lo: ColumnVec.Longs, hi: ColumnVec.Longs)     => new Longs(state, nullCount, dates = false, lo.values, hi.values)
      case (lo: ColumnVec.Dates, hi: ColumnVec.Dates)     =>
        new Longs(state, nullCount, dates = true, lo.days.map(_.toLong), hi.days.map(_.toLong))
      case (lo: ColumnVec.Doubles, hi: ColumnVec.Doubles) => new Doubles(state, nullCount, lo.values, hi.values)
      case (lo: ColumnVec.Strings, hi: ColumnVec.Strings) => new Strings(state, nullCount, lo.values, hi.values)
      case (lo: ColumnVec.Bools, hi: ColumnVec.Bools)     => new Bools(state, nullCount, lo.values, hi.values)
      case _ => new Scalars(state, nullCount, Array.tabulate(state.length)(mins.get), Array.tabulate(state.length)(maxs.get))
    }
}

/** Running zone-map bounds of a long or date column, both ascending in
  * position order: `maxUpTo(i)` is the greatest max among the ranged
  * partitions `0..i` (`Long.MinValue` if none) and `minFrom(i)` the least
  * min among the ranged partitions `i until n` (`Long.MaxValue` if none).
  * So the ranged partitions that reach up to `c` lie at or after the first
  * position whose `maxUpTo` is at least `c`, and those that reach down to
  * `c` before the first position whose `minFrom` is above `c`: on a sorted
  * or clustered column, a narrow window.
  */
final class RunningBounds private (val maxUpTo: Array[Long], val minFrom: Array[Long]) {
  /** The first position whose `maxUpTo` is above `c`, or at least `c` unless `strict`; n if none. */
  def from(c: Long, strict: Boolean): Int = RunningBounds.first(maxUpTo, c, orEqual = !strict)
  /** The first position whose `minFrom` is at least `c` if `strict`, else above `c`; n if none. */
  def until(c: Long, strict: Boolean): Int = RunningBounds.first(minFrom, c, orEqual = strict)
}

object RunningBounds {
  private[meta] def of(c: ColumnArrays.Longs, rowCount: Array[Long]): Option[RunningBounds] = {
    val n = c.state.length
    var i = 0
    while (i < n) {
      val st = c.state(i)
      if (st == ColumnArrays.Absent || (st == ColumnArrays.NoRange && c.nullCount(i) != rowCount(i))) return None
      i += 1
    }
    val maxUpTo = new Array[Long](n)
    val minFrom = new Array[Long](n)
    var hi = Long.MinValue
    i = 0
    while (i < n) { if (c.state(i) == ColumnArrays.Ranged) hi = math.max(hi, c.max(i)); maxUpTo(i) = hi; i += 1 }
    var lo = Long.MaxValue
    i = n - 1
    while (i >= 0) { if (c.state(i) == ColumnArrays.Ranged) lo = math.min(lo, c.min(i)); minFrom(i) = lo; i -= 1 }
    Some(new RunningBounds(maxUpTo, minFrom))
  }

  /** The first position of the ascending `a` above `c`, or at least `c` if `orEqual`; `a.length` if none. */
  private def first(a: Array[Long], c: Long, orEqual: Boolean): Int = {
    var from = 0
    var to = a.length
    while (from < to) {
      val mid = (from + to) >>> 1
      if (a(mid) > c || (orEqual && a(mid) == c)) to = mid else from = mid + 1
    }
    from
  }
}

/** A table's zone maps in struct-of-arrays form: per partition position its
  * id and row count, and per column its [[ColumnArrays]]. Built once per
  * table (a `MemTable`, an mpt manifest) so that pruning can bind a
  * predicate to the arrays once and then evaluate every partition by index.
  * A column no partition has reads as one shared column absent everywhere.
  *
  * The arrays here, and the position arrays of pruning results built from
  * them, are shared by every query over the table: read them, never write.
  * `records` are the partition records the arrays were built from, if any
  * (null: [[metas]] builds them from the arrays on first read).
  */
final class TableStats private[repro] (val ids: Array[Int], val rowCount: Array[Long],
                                       columns: Map[String, ColumnArrays], records: IndexedSeq[PartitionMeta]) {
  private lazy val absent: ColumnArrays = {
    val none = new ColumnVec.Scalars(new Array[Scalar](ids.length))
    ColumnArrays.of(new Array[Byte](ids.length), new Array[Long](ids.length), none, none)
  }

  /** Column `name` over every partition; absent everywhere if no partition has it. */
  def column(name: String): ColumnArrays = columns.getOrElse(name, absent)

  /** Partition `i`'s record, built from the arrays. */
  def record(i: Int): PartitionMeta =
    PartitionMeta(ids(i), rowCount(i), columns.flatMap { case (c, a) => a.statsAt(i).map(c -> _) })

  /** The partition records, in position order: those the stats were built
    * from, or else built from the arrays on first read.
    */
  lazy val metas: IndexedSeq[PartitionMeta] = if (records != null) records else Vector.tabulate(ids.length)(record)

  /** The positions of all partitions, `0 until n`. */
  lazy val allIndices: Array[Int] = Array.range(0, rowCount.length)

  /** The positions of the partitions that hold rows, ascending. */
  lazy val nonEmptyIndices: Array[Int] = allIndices.filter(rowCount(_) > 0)
}

object TableStats {
  /** The stats of these records, which they keep as their `metas`: each
    * column any record names is gathered into boxed bounds and typed by
    * [[ColumnVec.of]].
    */
  def of(metas: IndexedSeq[PartitionMeta]): TableStats = {
    val n = metas.size
    val ids = new Array[Int](n)
    val rowCount = new Array[Long](n)
    var i = 0
    while (i < n) { ids(i) = metas(i).id; rowCount(i) = metas(i).rowCount; i += 1 }
    val columns = metas.iterator.flatMap(_.cols.keysIterator).toSet.iterator.map { (name: String) =>
      val state = new Array[Byte](n)
      val nullCount = new Array[Long](n)
      val mins, maxs = new Array[Scalar](n)
      var p = 0
      while (p < n) {
        metas(p).cols.get(name) match {
          case Some(ColumnStats(Some(lo), Some(hi), nulls)) =>
            state(p) = ColumnArrays.Ranged; nullCount(p) = nulls; mins(p) = lo; maxs(p) = hi
          case Some(cs) => state(p) = ColumnArrays.NoRange; nullCount(p) = cs.nullCount
          case None     =>
        }
        p += 1
      }
      name -> ColumnArrays.of(state, nullCount, ColumnVec.of(mins), ColumnVec.of(maxs))
    }.toMap
    new TableStats(ids, rowCount, columns, metas)
  }

  @volatile private var last: TableStats = _

  /** The stats of `parts`, reusing those of the previous call when `parts`
    * is the same indexed sequence — as when a run of predicates prunes one
    * table's partitions — so that its columns are gathered once.
    */
  def ofSeq(parts: Seq[PartitionMeta]): TableStats = {
    val prev = last
    if (prev != null && (prev.metas eq parts)) prev
    else { val s = of(parts.toIndexedSeq); last = s; s }
  }
}
