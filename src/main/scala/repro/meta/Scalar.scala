package repro.meta

/** Typed scalar values carried in micro-partition metadata (zone maps).
  *
  * Snowflake's metadata store keeps per-column min/max values typed; we model
  * the types exercised by the paper's examples and our synthetic schemas:
  * integral, floating point, string, date (days since epoch), and boolean.
  *
  * Comparison is defined within a type family; longs and doubles cross-compare
  * numerically (a date is its own family). Comparing across unrelated families
  * yields `None`, which pruning must treat as "unknown" — never as a license
  * to prune.
  */
sealed trait Scalar extends Product with Serializable

object Scalar {
  final case class LongV(v: Long)     extends Scalar
  final case class DoubleV(v: Double) extends Scalar
  final case class StringV(v: String) extends Scalar
  /** Days since 1970-01-01, matching Spark's internal DateType encoding. */
  final case class DateV(days: Int)   extends Scalar
  final case class BoolV(v: Boolean)  extends Scalar

  /** Normalize -0.0 to 0.0: `Double.compare` distinguishes them, SQL does not. */
  @inline private def nd(x: Double): Double = if (x == 0.0) 0.0 else x

  /** The order of two doubles: `Double.compare` with -0.0 equal to 0.0. */
  def compareDoubles(x: Double, y: Double): Int = java.lang.Double.compare(nd(x), nd(y))

  /** The order of two strings: by code point, which is the byte order of
    * their UTF-8 encodings and so Spark's `UTF8String` order. `compareTo`
    * orders UTF-16 units instead, and puts a supplementary character (a
    * surrogate pair, D800–DFFF) below U+E000–U+FFFF. Here each unit is
    * remapped before comparing, surrogates above E000–FFFF, so that the
    * order is lexicographic over the remapped units: a total order on all
    * strings that is code-point order on well-formed ones.
    */
  def compareStrings(a: String, b: String): Int = {
    val n = math.min(a.length, b.length)
    var k = 0
    while (k < n) {
      val x = a.charAt(k)
      val y = b.charAt(k)
      if (x != y) return if (x >= 0xD800 && y >= 0xD800) codePointRank(x) - codePointRank(y) else x - y
      k += 1
    }
    a.length - b.length
  }

  /** A UTF-16 unit's rank in [[compareStrings]]'s order, for units from D800. */
  @inline private def codePointRank(c: Char): Int = if (c >= 0xE000) c - 0x800 else c + 0x2000

  /** Three-valued comparison: Some(<0|0|>0) when comparable, None otherwise. */
  def compare(a: Scalar, b: Scalar): Option[Int] = (a, b) match {
    case (LongV(x), LongV(y))     => Some(java.lang.Long.compare(x, y))
    case (LongV(x), DoubleV(y))   => Some(java.lang.Double.compare(x.toDouble, nd(y)))
    case (DoubleV(x), LongV(y))   => Some(java.lang.Double.compare(nd(x), y.toDouble))
    case (DoubleV(x), DoubleV(y)) => Some(compareDoubles(x, y))
    case (StringV(x), StringV(y)) => Some(compareStrings(x, y))
    case (DateV(x), DateV(y))     => Some(Integer.compare(x, y))
    case (BoolV(x), BoolV(y))     => Some(java.lang.Boolean.compare(x, y))
    case _                        => None
  }

  def lt(a: Scalar, b: Scalar): Option[Boolean]  = compare(a, b).map(_ < 0)
  def lte(a: Scalar, b: Scalar): Option[Boolean] = compare(a, b).map(_ <= 0)
  def eq(a: Scalar, b: Scalar): Option[Boolean]  = compare(a, b).map(_ == 0)

  def min(a: Scalar, b: Scalar): Option[Scalar] = compare(a, b).map(c => if (c <= 0) a else b)
  def max(a: Scalar, b: Scalar): Option[Scalar] = compare(a, b).map(c => if (c >= 0) a else b)

  /** Numeric view for arithmetic range derivation (§3.1). */
  def asDouble(s: Scalar): Option[Double] = s match {
    case LongV(v)   => Some(v.toDouble)
    case DoubleV(v) => Some(v)
    case DateV(v)   => Some(v.toDouble)
    case _          => None
  }

  /** Build a Scalar from a runtime value produced by Spark or the simulator. */
  def fromAny(v: Any): Option[Scalar] = v match {
    case null                     => None
    case x: Long                  => Some(LongV(x))
    case x: Int                   => Some(LongV(x.toLong))
    case x: Short                 => Some(LongV(x.toLong))
    case x: Byte                  => Some(LongV(x.toLong))
    case x: Double                => Some(DoubleV(x))
    case x: Float                 => Some(DoubleV(x.toDouble))
    case x: java.math.BigDecimal  => Some(DoubleV(x.doubleValue))
    case x: BigDecimal            => Some(DoubleV(x.doubleValue))
    case x: String                => Some(StringV(x))
    case x: java.sql.Date         => Some(DateV(x.toLocalDate.toEpochDay.toInt))
    case x: java.time.LocalDate   => Some(DateV(x.toEpochDay.toInt))
    case x: Boolean               => Some(BoolV(x))
    case _                        => None
  }
}

/** Kleene three-valued logic used by metadata predicate evaluation.
  *
  * `True`  — every row in the partition satisfies the predicate (given stats);
  * `False` — no row can satisfy it (the partition may be pruned);
  * `Unknown` — the metadata cannot decide.
  */
sealed trait Tri extends Product with Serializable {
  import Tri._
  def &&(o: Tri): Tri = (this, o) match {
    case (False, _) | (_, False) => False
    case (True, True)            => True
    case _                       => Unknown
  }
  def ||(o: Tri): Tri = (this, o) match {
    case (True, _) | (_, True) => True
    case (False, False)        => False
    case _                     => Unknown
  }
  def not: Tri = this match {
    case True    => False
    case False   => True
    case Unknown => Unknown
  }
  /** A partition may contain matching rows unless the predicate is False. */
  def mayMatch: Boolean = this != False
}

object Tri {
  case object True    extends Tri
  case object False   extends Tri
  case object Unknown extends Tri
  def fromOption(o: Option[Boolean]): Tri = o match {
    case Some(true)  => True
    case Some(false) => False
    case None        => Unknown
  }
}
