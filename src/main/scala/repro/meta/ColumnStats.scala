package repro.meta

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
  * whose ranges mix families keeps boxed [[Scalar]]s.
  */
sealed abstract class ColumnArrays(val state: Array[Byte], val nullCount: Array[Long]) {
  /** Partition `i`'s max if `max`, else its min, boxed; `i` must be ranged. */
  def bound(i: Int, max: Boolean): Scalar
  /** Store partition `i`'s range; false if it is not of this column's family. */
  private[meta] def put(i: Int, lo: Scalar, hi: Scalar): Boolean
}

object ColumnArrays {
  final val Absent: Byte  = 0
  final val NoRange: Byte = 1
  final val Ranged: Byte  = 2

  import Scalar._

  /** Long values, or date days when `dates`. */
  final class Longs(state: Array[Byte], nullCount: Array[Long], val dates: Boolean,
                    val min: Array[Long], val max: Array[Long]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = {
      val v = if (max) this.max(i) else min(i)
      if (dates) DateV(v.toInt) else LongV(v)
    }
    private[meta] def put(i: Int, lo: Scalar, hi: Scalar): Boolean = (lo, hi) match {
      case (LongV(a), LongV(b)) if !dates => min(i) = a; max(i) = b; true
      case (DateV(a), DateV(b)) if dates  => min(i) = a.toLong; max(i) = b.toLong; true
      case _ => false
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
  final class Doubles(state: Array[Byte], nullCount: Array[Long],
                      val min: Array[Double], val max: Array[Double]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = DoubleV(if (max) this.max(i) else min(i))
    private[meta] def put(i: Int, lo: Scalar, hi: Scalar): Boolean = (lo, hi) match {
      case (DoubleV(a), DoubleV(b)) => min(i) = a; max(i) = b; true
      case _ => false
    }
  }
  final class Strings(state: Array[Byte], nullCount: Array[Long],
                      val min: Array[String], val max: Array[String]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = StringV(if (max) this.max(i) else min(i))
    private[meta] def put(i: Int, lo: Scalar, hi: Scalar): Boolean = (lo, hi) match {
      case (StringV(a), StringV(b)) => min(i) = a; max(i) = b; true
      case _ => false
    }
  }
  final class Bools(state: Array[Byte], nullCount: Array[Long],
                    val min: Array[Boolean], val max: Array[Boolean]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = BoolV(if (max) this.max(i) else min(i))
    private[meta] def put(i: Int, lo: Scalar, hi: Scalar): Boolean = (lo, hi) match {
      case (BoolV(a), BoolV(b)) => min(i) = a; max(i) = b; true
      case _ => false
    }
  }
  final class Scalars(state: Array[Byte], nullCount: Array[Long],
                      val min: Array[Scalar], val max: Array[Scalar]) extends ColumnArrays(state, nullCount) {
    def bound(i: Int, max: Boolean): Scalar = if (max) this.max(i) else min(i)
    private[meta] def put(i: Int, lo: Scalar, hi: Scalar): Boolean = { min(i) = lo; max(i) = hi; true }
  }

  /** Transpose column `name` of the given partitions. */
  def of(metas: IndexedSeq[PartitionMeta], name: String): ColumnArrays = {
    val b = new Builder(metas.size)
    metas.foreach(m => b.add(m.cols.getOrElse(name, null)))
    b.result
  }

  /** Collects one column partition by partition: the ranges boxed and, while
    * they share the first range's family, also in that family's arrays.
    * The per-partition step `add` runs inside the collection's `foreach`, so
    * the JIT compiles both within the first tables; a loop written in `of`
    * runs once per scan and would stay interpreted for many scans.
    */
  private final class Builder(n: Int) {
    private val state = new Array[Byte](n)
    private val nullCount = new Array[Long](n)
    private val boxed = new Scalars(state, nullCount, new Array[Scalar](n), new Array[Scalar](n))
    private var typed: ColumnArrays = null
    private var mixed = false
    private var i = 0

    /** The next partition's stats, or null if it lacks the column. */
    def add(cs: ColumnStats): Unit = if (cs == null) i += 1 else {
      nullCount(i) = cs.nullCount
      if (cs.min.isEmpty || cs.max.isEmpty) state(i) = NoRange
      else {
        state(i) = Ranged
        val (lo, hi) = (cs.min.get, cs.max.get)
        boxed.put(i, lo, hi)
        if (typed == null) typed = lo match {
          case _: LongV   => new Longs(state, nullCount, dates = false, new Array[Long](n), new Array[Long](n))
          case _: DateV   => new Longs(state, nullCount, dates = true, new Array[Long](n), new Array[Long](n))
          case _: DoubleV => new Doubles(state, nullCount, new Array[Double](n), new Array[Double](n))
          case _: StringV => new Strings(state, nullCount, new Array[String](n), new Array[String](n))
          case _: BoolV   => new Bools(state, nullCount, new Array[Boolean](n), new Array[Boolean](n))
        }
        if (!mixed && !typed.put(i, lo, hi)) mixed = true
      }
      i += 1
    }

    def result: ColumnArrays = if (typed == null || mixed) boxed else typed
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

/** A table's zone maps in struct-of-arrays form: the partition records plus
  * their row counts and, per column, [[ColumnArrays]] transposed on first
  * use. Built once per table (a `MemTable`, an mpt manifest) so that
  * pruning can bind a predicate to the arrays once and then evaluate every
  * partition by index; only the columns some bound predicate references are
  * ever transposed.
  *
  * The arrays here, and the position arrays of pruning results built from
  * them, are shared by every query over the table: read them, never write.
  */
final class TableStats private (val metas: IndexedSeq[PartitionMeta], val rowCount: Array[Long]) {
  private val columns = new java.util.concurrent.ConcurrentHashMap[String, ColumnArrays]()

  /** Column `name` over every partition; absent everywhere if no partition has it. */
  def column(name: String): ColumnArrays = {
    val c = columns.get(name)
    if (c != null) c else columns.computeIfAbsent(name, ColumnArrays.of(metas, _))
  }

  /** The positions of all partitions, `0 until n`. */
  lazy val allIndices: Array[Int] = Array.range(0, rowCount.length)

  /** The positions of the partitions that hold rows, ascending. */
  lazy val nonEmptyIndices: Array[Int] = allIndices.filter(rowCount(_) > 0)
}

object TableStats {
  def of(metas: IndexedSeq[PartitionMeta]): TableStats = {
    val rowCount = new Array[Long](metas.size)
    var i = 0
    while (i < rowCount.length) { rowCount(i) = metas(i).rowCount; i += 1 }
    new TableStats(metas, rowCount)
  }

  @volatile private var last: TableStats = _

  /** The stats of `parts`, reusing those of the previous call when `parts`
    * is the same indexed sequence — as when a run of predicates prunes one
    * table's partitions — so that its columns are transposed once.
    */
  def ofSeq(parts: Seq[PartitionMeta]): TableStats = {
    val prev = last
    if (prev != null && (prev.metas eq parts)) prev
    else { val s = of(parts.toIndexedSeq); last = s; s }
  }
}
