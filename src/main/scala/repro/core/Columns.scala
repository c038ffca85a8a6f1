package repro.core

import repro.meta.{ColumnStats, Scalar}

/** A partition's rows as typed columns: what a compiled row predicate
  * ([[RowEval]]) binds to.
  */
trait Columns {
  def rowCount: Int
  /** Column `name`, or null if the partition lacks it. */
  def column(name: String): ColumnVec
  /** Row `r` as the name → value resolver [[PExprEval]] reads. */
  def lookupAt(r: Int): PExprEval.RowLookup = { name =>
    val c = column(name)
    if (c == null) None else Option(c.get(r))
  }
}

/** One column of a partition: one typed array of its rows' values. The
  * subclass is the type family every non-null value shares; a column that
  * mixes families, or holds only NULLs, keeps boxed [[Scalar]]s. Null flags
  * exist only for a primitive column that has NULLs; a reference array
  * marks NULL with null.
  */
sealed abstract class ColumnVec {
  def isNull(r: Int): Boolean
  /** Row `r`'s value, boxed; null for SQL NULL. */
  def get(r: Int): Scalar
  /** `Scalar.compare(get(r), s)` without boxing row `r`: its sign, or
    * [[ColumnVec.NC]] where that is None. Row `r` must not be NULL.
    */
  def compareAt(r: Int, s: Scalar): Int
  /** `Scalar.compare(get(i), get(j))` of two non-NULL rows, as [[compareAt]]. */
  def compareRows(i: Int, j: Int): Int
  /** The rows at `positions(from until until)`, in that order, copied into a
    * new column: the one [[ColumnVec.of]] gives for their values.
    */
  def select(positions: Array[Int], from: Int, until: Int): ColumnVec

  /** The zone map of this column: min, max and null count. A tie (±0.0,
    * NaNs) keeps the first value seen, and an incomparable value restarts
    * the running min or max, as the boxed fold over `Scalar.min`/`max` does.
    */
  def stats(rowCount: Int): ColumnStats = {
    var nullCount = 0L
    var lo, hi = -1
    var r = 0
    while (r < rowCount) {
      if (isNull(r)) nullCount += 1
      else if (lo < 0) { lo = r; hi = r }
      else {
        if (compareRows(r, lo) < 0) lo = r // ColumnVec.NC is negative too
        val c = compareRows(r, hi)
        if (c > 0 || c == ColumnVec.NC) hi = r
      }
      r += 1
    }
    if (lo < 0) ColumnStats(None, None, nullCount) else ColumnStats(Some(get(lo)), Some(get(hi)), nullCount)
  }
}

object ColumnVec {
  import Scalar._

  /** [[ColumnVec.compareAt]] of incomparable values. */
  final val NC = Int.MinValue

  @inline private def nd(x: Double): Double = if (x == 0.0) 0.0 else x

  final class Longs(val values: Array[Long], val nulls: Array[Boolean]) extends ColumnVec {
    def isNull(r: Int): Boolean = nulls != null && nulls(r)
    def get(r: Int): Scalar = if (isNull(r)) null else LongV(values(r))
    def compareAt(r: Int, s: Scalar): Int = s match {
      case LongV(y)   => java.lang.Long.compare(values(r), y)
      case DoubleV(y) => java.lang.Double.compare(values(r).toDouble, nd(y))
      case _          => NC
    }
    def compareRows(i: Int, j: Int): Int = java.lang.Long.compare(values(i), values(j))
    def select(positions: Array[Int], from: Int, until: Int): ColumnVec =
      gather(nulls, positions, from, until) { flags =>
        val out = new Array[Long](until - from)
        var r = 0
        while (r < out.length) { out(r) = values(positions(from + r)); r += 1 }
        new Longs(out, flags)
      }
  }

  /** Dates as days since the epoch. */
  final class Dates(val days: Array[Int], val nulls: Array[Boolean]) extends ColumnVec {
    def isNull(r: Int): Boolean = nulls != null && nulls(r)
    def get(r: Int): Scalar = if (isNull(r)) null else DateV(days(r))
    def compareAt(r: Int, s: Scalar): Int = s match {
      case DateV(y) => Integer.compare(days(r), y)
      case _        => NC
    }
    def compareRows(i: Int, j: Int): Int = Integer.compare(days(i), days(j))
    def select(positions: Array[Int], from: Int, until: Int): ColumnVec =
      gather(nulls, positions, from, until) { flags =>
        val out = new Array[Int](until - from)
        var r = 0
        while (r < out.length) { out(r) = days(positions(from + r)); r += 1 }
        new Dates(out, flags)
      }
  }

  final class Doubles(val values: Array[Double], val nulls: Array[Boolean]) extends ColumnVec {
    def isNull(r: Int): Boolean = nulls != null && nulls(r)
    def get(r: Int): Scalar = if (isNull(r)) null else DoubleV(values(r))
    def compareAt(r: Int, s: Scalar): Int = s match {
      case DoubleV(y) => Scalar.compareDoubles(values(r), y)
      case LongV(y)   => java.lang.Double.compare(nd(values(r)), y.toDouble)
      case _          => NC
    }
    def compareRows(i: Int, j: Int): Int = Scalar.compareDoubles(values(i), values(j))
    def select(positions: Array[Int], from: Int, until: Int): ColumnVec =
      gather(nulls, positions, from, until) { flags =>
        val out = new Array[Double](until - from)
        var r = 0
        while (r < out.length) { out(r) = values(positions(from + r)); r += 1 }
        new Doubles(out, flags)
      }
  }

  final class Strings(val values: Array[String]) extends ColumnVec {
    def isNull(r: Int): Boolean = values(r) == null
    def get(r: Int): Scalar = if (isNull(r)) null else StringV(values(r))
    def compareAt(r: Int, s: Scalar): Int = s match {
      case StringV(y) => Integer.signum(Scalar.compareStrings(values(r), y))
      case _          => NC
    }
    def compareRows(i: Int, j: Int): Int = Integer.signum(Scalar.compareStrings(values(i), values(j)))
    def select(positions: Array[Int], from: Int, until: Int): ColumnVec = {
      val out = new Array[String](until - from)
      var nullCount = 0
      var r = 0
      while (r < out.length) {
        out(r) = values(positions(from + r))
        if (out(r) == null) nullCount += 1
        r += 1
      }
      if (nullCount == out.length) new Scalars(new Array[Scalar](out.length)) else new Strings(out)
    }
  }

  final class Bools(val values: Array[Boolean], val nulls: Array[Boolean]) extends ColumnVec {
    def isNull(r: Int): Boolean = nulls != null && nulls(r)
    def get(r: Int): Scalar = if (isNull(r)) null else BoolV(values(r))
    def compareAt(r: Int, s: Scalar): Int = s match {
      case BoolV(y) => java.lang.Boolean.compare(values(r), y)
      case _        => NC
    }
    def compareRows(i: Int, j: Int): Int = java.lang.Boolean.compare(values(i), values(j))
    def select(positions: Array[Int], from: Int, until: Int): ColumnVec =
      gather(nulls, positions, from, until) { flags =>
        val out = new Array[Boolean](until - from)
        var r = 0
        while (r < out.length) { out(r) = values(positions(from + r)); r += 1 }
        new Bools(out, flags)
      }
  }

  /** Values of mixed families, or only NULLs. */
  final class Scalars(val values: Array[Scalar]) extends ColumnVec {
    def isNull(r: Int): Boolean = values(r) == null
    def get(r: Int): Scalar = values(r)
    def compareAt(r: Int, s: Scalar): Int = Scalar.compare(values(r), s) match {
      case Some(c) => Integer.signum(c)
      case None    => NC
    }
    def compareRows(i: Int, j: Int): Int = compareAt(i, values(j))
    def select(positions: Array[Int], from: Int, until: Int): ColumnVec =
      of(Array.tabulate(until - from)(r => values(positions(from + r))))
  }

  /** A primitive column's [[ColumnVec.select]]: the null flags of the rows
    * at `positions(from until until)` go to `typed`, which copies their
    * values — null flags if some rows are NULL, null if none are. Rows that
    * are all NULL, or none, give the boxed column [[ColumnVec.of]] gives.
    */
  private def gather(nulls: Array[Boolean], positions: Array[Int], from: Int, until: Int)
                    (typed: Array[Boolean] => ColumnVec): ColumnVec = {
    val n = until - from
    var flags: Array[Boolean] = null
    var nullCount = 0
    if (nulls != null) {
      flags = new Array[Boolean](n)
      var r = 0
      while (r < n) {
        if (nulls(positions(from + r))) { flags(r) = true; nullCount += 1 }
        r += 1
      }
    }
    if (nullCount == n) new Scalars(new Array[Scalar](n))
    else typed(if (nullCount == 0) null else flags)
  }

  /** The narrowest column holding `values` (null = SQL NULL). */
  def of(values: Array[Scalar]): ColumnVec = {
    val n = values.length
    var first: Scalar = null
    var nulls = 0
    var mixed = false
    var r = 0
    while (r < n) {
      val v = values(r)
      if (v == null) nulls += 1
      else if (first == null) first = v
      else if (v.getClass ne first.getClass) mixed = true
      r += 1
    }
    val flags = if (nulls == 0) null else Array.tabulate(n)(values(_) == null)
    if (first == null || mixed) new Scalars(values.clone())
    else first match {
      case _: LongV   => new Longs(Array.tabulate(n)(r => values(r) match { case LongV(v) => v; case _ => 0L }), flags)
      case _: DateV   => new Dates(Array.tabulate(n)(r => values(r) match { case DateV(v) => v; case _ => 0 }), flags)
      case _: DoubleV => new Doubles(Array.tabulate(n)(r => values(r) match { case DoubleV(v) => v; case _ => 0.0 }), flags)
      case _: StringV => new Strings(Array.tabulate(n)(r => values(r) match { case StringV(v) => v; case _ => null }))
      case _: BoolV   => new Bools(Array.tabulate(n)(r => values(r) match { case BoolV(v) => v; case _ => false }), flags)
    }
  }
}
