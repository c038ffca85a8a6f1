package repro.core

import repro.meta._
import PExpr._

/** Metadata-only (zone-map) evaluation of pruning expressions (§3.1).
  *
  * Value expressions evaluate to a conservative range — a min/max hull of all
  * values the expression can take on rows of the partition — plus
  * nullability flags ([[RangeEval.VR]]).
  *
  * Predicates evaluate to the *superset* of row-level SQL outcomes (TRUE /
  * FALSE / NULL) that rows of the partition can produce, encoded as a set of
  * the bits [[RangeEval.T]], [[RangeEval.F]] and [[RangeEval.N]]. This is
  * strictly more precise than three-valued logic: SQL's NULL must be tracked
  * separately or `NOT p` would wrongly certify fully-matching partitions over
  * nullable columns.
  *
  * A predicate is bound once to a table's [[TableStats]] ([[RangeEval.bind]]):
  * binding resolves every column to its arrays and does all work that does
  * not depend on the partition (literal ranges, LIKE widening, prefix upper
  * bounds, IN-list sorting). The bound form then evaluates partition `i`
  * without maps, boxing or allocation, or a column of partitions in one
  * call ([[RangeEval.Bound.outcomesAt]]): each node evaluates its whole
  * batch before its parent combines the results, and a column compared with
  * a literal of its family is a typed loop over the zone-map arrays.
  * [[RangeEval.Bound.window]] narrows a table to the positions where the
  * predicate can be TRUE, from the running bounds of long and date columns.
  *
  * Soundness contract (property-tested): if some row of the partition
  * evaluates the predicate to outcome o, then o is in the computed set.
  * Over-approximation is allowed; under-approximation is a correctness bug.
  */
object RangeEval {

  /** Outcome-set bits. */
  final val T = 1
  final val F = 2
  final val N = 4
  private final val TF  = T | F
  private final val TFN = T | F | N

  /** Derived value info: hull range over non-null outcomes (None = unknown),
    * whether some row may produce null, and whether every row produces null.
    */
  final case class VR(range: Option[ValueRange], mayBeNull: Boolean, allNull: Boolean)

  /** Possible row-level outcomes of a predicate on this partition. */
  final case class Outcomes(t: Boolean, f: Boolean, n: Boolean) {
    /** Partition may contain a qualifying row. */
    def mayMatch: Boolean = t
    /** Every row qualifies: neither FALSE nor NULL is possible. */
    def allTrue: Boolean = t && !f && !n
    /** Projection to three-valued logic for reporting. */
    def tri: Tri =
      if (!t) Tri.False
      else if (allTrue) Tri.True
      else Tri.Unknown
  }

  object Outcomes {
    def of(bits: Int): Outcomes = Outcomes((bits & T) != 0, (bits & F) != 0, (bits & N) != 0)
  }

  /** A predicate bound to one table's stats. Evaluation reuses per-node
    * registers, so a bound predicate must not be shared between threads.
    */
  final class Bound private[RangeEval] (root: Pred, rowCount: Array[Long]) {
    /** Possible outcomes on partition `i`: a set of [[T]], [[F]] and [[N]]. */
    def outcomes(i: Int): Int = root.eval(i)
    /** `out(j) = outcomes(indices(j))` for every `j` of `indices`. */
    def outcomesAt(indices: Array[Int], out: Array[Byte]): Unit = root.evalAt(indices, 0, indices.length, out)
    /** `out(j - from) = outcomes(indices(j))` for every `j` in `[from, until)`. */
    def outcomesAt(indices: Array[Int], from: Int, until: Int, out: Array[Byte]): Unit =
      root.evalAt(indices, from, until, out)
    /** The positions outside which TRUE is not a possible outcome: a
      * comparison of a long or date column with a literal of its family
      * binary-searches the column's [[RunningBounds]], an AND intersects its
      * children's windows, and every other node spans the whole table.
      */
    def window: Range = root.window(rowCount.length)
    /** May partition `i` contain a matching row? (pass 1 of §4.2) */
    def mayMatch(i: Int): Boolean = rowCount(i) > 0 && (root.eval(i) & T) != 0
  }

  def bind(pred: PExpr, stats: TableStats): Bound = new Bound(bindPred(pred, stats), stats.rowCount)

  // ---- per-partition wrappers: bind over a one-partition table ------------

  def evalValue(e: PExpr, meta: PartitionMeta): VR = {
    val v = bindValue(e, TableStats.of(Vector(meta)))
    v.eval(0)
    VR(if (v.known) Some(ValueRange(v.lo.toScalar, v.hi.toScalar)) else None, v.mayBeNull, v.allNull)
  }

  /** Possible row-level outcomes of a predicate, from metadata alone. */
  def evalOutcomes(e: PExpr, meta: PartitionMeta): Outcomes =
    Outcomes.of(bind(e, TableStats.of(Vector(meta))).outcomes(0))

  /** Three-valued projection, used by reporting and simple tests. */
  def evalPred(e: PExpr, meta: PartitionMeta): Tri = evalOutcomes(e, meta).tri

  /** May the partition contain a matching row? (pass 1 of §4.2) */
  def mayMatch(pred: PExpr, meta: PartitionMeta): Boolean =
    meta.rowCount > 0 && evalOutcomes(pred, meta).mayMatch

  // ---- Kleene AND / OR lifted to outcome sets ------------------------------

  private def lift(op: (Int, Int) => Int): Array[Int] =
    Array.tabulate(64) { ab =>
      val (a, b) = (ab >> 3, ab & 7)
      var out = 0
      for (x <- Seq(T, F, N) if (a & x) != 0; y <- Seq(T, F, N) if (b & y) != 0) out |= op(x, y)
      out
    }
  private val andTable = lift((x, y) => if (x == F || y == F) F else if (x == T && y == T) T else N)
  private val orTable  = lift((x, y) => if (x == T || y == T) T else if (x == F && y == F) F else N)

  // ---- one-input maps over outcome sets --------------------------------------

  /** Swap TRUE and FALSE, keep NULL. */
  @inline private def not(o: Int): Int = ((o & T) << 1) | ((o & F) >> 1) | (o & N)

  private val notTable = Array.tabulate(8)(not)
  private val isNotTrueTable =
    Array.tabulate(8)(o => (if ((o & (F | N)) != 0) T else 0) | (if ((o & T) != 0) F else 0))
  /** Imprecise rewrite (§3.1): original ⇒ widened. If the widened form cannot
    * be TRUE, neither can the original; a TRUE widened outcome only tells us
    * the original may be TRUE or FALSE.
    */
  private val widenedTable = Array.tabulate(8)(o => if ((o & T) != 0) o | F else o)

  // ---- scalar registers ------------------------------------------------------

  // Type families of an endpoint; FN marks an unknown range.
  private final val FN = 0
  private final val FL = 1 // long
  private final val FD = 2 // double
  private final val FS = 3 // string
  private final val FT = 4 // date (days)
  private final val FB = 5 // boolean (0/1)
  /** Comparison result for incomparable families: fails `< 0`, `<= 0`, `== 0`. */
  private final val NC = 2

  /** One unboxed [[Scalar]]: `l` holds longs, date days and booleans. */
  private final class End {
    var fam: Int = FN
    var l: Long = 0L
    var d: Double = 0.0
    var s: String = null

    def setLong(f: Int, v: Long): Unit = { fam = f; l = v }
    def setDouble(v: Double): Unit = { fam = FD; d = v }
    def setString(v: String): Unit = { fam = FS; s = v }
    def set(o: End): Unit = { fam = o.fam; l = o.l; d = o.d; s = o.s }
    def set(x: Scalar): Unit = x match {
      case Scalar.LongV(v)   => setLong(FL, v)
      case Scalar.DoubleV(v) => setDouble(v)
      case Scalar.StringV(v) => setString(v)
      case Scalar.DateV(v)   => setLong(FT, v.toLong)
      case Scalar.BoolV(v)   => setLong(FB, if (v) 1L else 0L)
    }
    def toScalar: Scalar = fam match {
      case FL => Scalar.LongV(l)
      case FD => Scalar.DoubleV(d)
      case FS => Scalar.StringV(s)
      case FT => Scalar.DateV(l.toInt)
      case _  => Scalar.BoolV(l != 0L)
    }
    /** [[Scalar.asDouble]] is defined. */
    def numeric: Boolean = fam == FL || fam == FD || fam == FT
    def asDouble: Double = if (fam == FD) d else l.toDouble
  }

  @inline private def nd(x: Double): Double = if (x == 0.0) 0.0 else x

  /** [[Scalar.compare]] on registers, with [[NC]] for None. */
  private def cmp(a: End, b: End): Int =
    if (a.fam == FL && b.fam == FL) java.lang.Long.compare(a.l, b.l)
    else if ((a.fam == FL || a.fam == FD) && (b.fam == FL || b.fam == FD))
      java.lang.Double.compare(nd(a.asDouble), nd(b.asDouble))
    else if (a.fam != b.fam || a.fam == FN) NC
    else if (a.fam == FS) Integer.signum(Scalar.compareStrings(a.s, b.s))
    else java.lang.Long.compare(a.l, b.l)

  // ---- bound value expressions ---------------------------------------------

  /** A value expression; `eval(i)` fills the registers for partition `i`. */
  private abstract class Value {
    val lo = new End
    val hi = new End
    var mayBeNull = false
    var allNull = false
    def known: Boolean = lo.fam != FN
    def unknown(): Unit = { lo.fam = FN; hi.fam = FN }
    def set(o: Value): Unit = {
      lo.set(o.lo); hi.set(o.hi); mayBeNull = o.mayBeNull; allNull = o.allNull
    }
    def eval(i: Int): Unit
  }

  /** Partition-invariant value (literal, NULL, Opaque). */
  private final class Const(range: Option[ValueRange], nullable: Boolean, nullOnly: Boolean) extends Value {
    range match {
      case Some(r) => lo.set(r.min); hi.set(r.max)
      case None    => unknown()
    }
    mayBeNull = nullable
    allNull = nullOnly
    def eval(i: Int): Unit = ()
  }

  private abstract class ColValue(c: ColumnArrays, rowCount: Array[Long]) extends Value {
    final def eval(i: Int): Unit = {
      val st = c.state(i)
      if (st == ColumnArrays.Absent) { unknown(); mayBeNull = true; allNull = false }
      else {
        val nulls = c.nullCount(i)
        mayBeNull = nulls > 0
        allNull = nulls == rowCount(i)
        if (st == ColumnArrays.Ranged) load(i) else unknown()
      }
    }
    protected def load(i: Int): Unit
  }

  private def colValue(c: ColumnArrays, rowCount: Array[Long]): Value = c match {
    case a: ColumnArrays.Longs =>
      val fam = if (a.dates) FT else FL
      new ColValue(c, rowCount) {
        def load(i: Int): Unit = { lo.setLong(fam, a.min(i)); hi.setLong(fam, a.max(i)) }
      }
    case a: ColumnArrays.Doubles => new ColValue(c, rowCount) {
      def load(i: Int): Unit = { lo.setDouble(a.min(i)); hi.setDouble(a.max(i)) }
    }
    case a: ColumnArrays.Strings => new ColValue(c, rowCount) {
      def load(i: Int): Unit = { lo.setString(a.min(i)); hi.setString(a.max(i)) }
    }
    case a: ColumnArrays.Bools => new ColValue(c, rowCount) {
      def load(i: Int): Unit = {
        lo.setLong(FB, if (a.min(i)) 1L else 0L); hi.setLong(FB, if (a.max(i)) 1L else 0L)
      }
    }
    case a: ColumnArrays.Scalars => new ColValue(c, rowCount) {
      def load(i: Int): Unit = { lo.set(a.min(i)); hi.set(a.max(i)) }
    }
  }

  /** Interval arithmetic. Two all-long ranges stay exact (overflow gives an
    * unknown range); otherwise endpoints widen to double, and division is
    * always in double. Division by a range containing 0 is unknown and may
    * yield NULL (divide-by-zero) even on non-null inputs.
    */
  private final class ArithValue(op: ArithOp, a: Value, b: Value) extends Value {
    private val zero = { val z = new End; z.setDouble(0.0); z }

    def eval(i: Int): Unit = {
      a.eval(i); b.eval(i)
      mayBeNull = a.mayBeNull || b.mayBeNull || op == ArithOp.Div
      allNull = a.allNull || b.allNull
      if (!a.known || !b.known) unknown()
      else {
        val longs = a.lo.fam == FL && a.hi.fam == FL && b.lo.fam == FL && b.hi.fam == FL
        try op match {
          case ArithOp.Add =>
            if (longs) { lo.setLong(FL, Math.addExact(a.lo.l, b.lo.l)); hi.setLong(FL, Math.addExact(a.hi.l, b.hi.l)) }
            else doubles(a.lo, b.lo, a.hi, b.hi)(_ + _)
          case ArithOp.Sub =>
            if (longs) { lo.setLong(FL, Math.subtractExact(a.lo.l, b.hi.l)); hi.setLong(FL, Math.subtractExact(a.hi.l, b.lo.l)) }
            else doubles(a.lo, b.hi, a.hi, b.lo)(_ - _)
          case ArithOp.Mul =>
            if (longs) {
              val p1 = Math.multiplyExact(a.lo.l, b.lo.l)
              val p2 = Math.multiplyExact(a.lo.l, b.hi.l)
              val p3 = Math.multiplyExact(a.hi.l, b.lo.l)
              val p4 = Math.multiplyExact(a.hi.l, b.hi.l)
              lo.setLong(FL, math.min(math.min(p1, p2), math.min(p3, p4)))
              hi.setLong(FL, math.max(math.max(p1, p2), math.max(p3, p4)))
            } else corners(_ * _)
          case ArithOp.Div =>
            if (cmp(b.lo, zero) <= 0 && cmp(zero, b.hi) <= 0) unknown() else corners(_ / _)
        } catch { case _: ArithmeticException => unknown() }
      }
    }

    /** lo = x1 op y1, hi = x2 op y2 in double, if all four are numeric. */
    private def doubles(x1: End, y1: End, x2: End, y2: End)(f: (Double, Double) => Double): Unit =
      if (x1.numeric && y1.numeric && x2.numeric && y2.numeric) {
        lo.setDouble(f(x1.asDouble, y1.asDouble)); hi.setDouble(f(x2.asDouble, y2.asDouble))
      } else unknown()

    /** Hull of the four corner results in double, ordered by `Double.compare`. */
    private def corners(f: (Double, Double) => Double): Unit =
      if (a.lo.numeric && a.hi.numeric && b.lo.numeric && b.hi.numeric) {
        val c1 = f(a.lo.asDouble, b.lo.asDouble)
        val c2 = f(a.lo.asDouble, b.hi.asDouble)
        val c3 = f(a.hi.asDouble, b.lo.asDouble)
        val c4 = f(a.hi.asDouble, b.hi.asDouble)
        def min(x: Double, y: Double) = if (java.lang.Double.compare(y, x) < 0) y else x
        def max(x: Double, y: Double) = if (java.lang.Double.compare(y, x) > 0) y else x
        lo.setDouble(min(min(c1, c2), min(c3, c4))); hi.setDouble(max(max(c1, c2), max(c3, c4)))
      } else unknown()
  }

  private final class NegValue(a: Value) extends Value {
    def eval(i: Int): Unit = {
      a.eval(i)
      mayBeNull = a.mayBeNull; allNull = a.allNull
      if (a.known && a.lo.numeric && a.hi.numeric) { lo.setDouble(-a.hi.asDouble); hi.setDouble(-a.lo.asDouble) }
      else unknown()
    }
  }

  /** `IF(c, t, f)`: a decided condition picks its branch (FALSE and NULL take
    * the else-branch); otherwise the range is the hull of both (§3.1).
    */
  private final class IfValue(c: Pred, t: Value, f: Value) extends Value {
    def eval(i: Int): Unit = {
      val co = c.eval(i)
      if (co == T) { t.eval(i); set(t) }
      else if ((co & T) == 0) { f.eval(i); set(f) }
      else {
        t.eval(i); f.eval(i)
        mayBeNull = t.mayBeNull || f.mayBeNull
        allNull = t.allNull && f.allNull
        if (!t.known || !f.known) unknown()
        else {
          val cl = cmp(t.lo, f.lo)
          val ch = cmp(t.hi, f.hi)
          if (cl == NC || ch == NC) unknown()
          else {
            lo.set(if (cl <= 0) t.lo else f.lo)
            hi.set(if (ch >= 0) t.hi else f.hi)
          }
        }
      }
    }
  }

  /** A predicate used in value position (boolean expression). */
  private final class PredValue(p: Pred) extends Value {
    def eval(i: Int): Unit = {
      val o = p.eval(i)
      mayBeNull = (o & N) != 0
      allNull = o == N
      (o & TF) match {
        case T  => lo.setLong(FB, 1L); hi.setLong(FB, 1L)
        case F  => lo.setLong(FB, 0L); hi.setLong(FB, 0L)
        case TF => lo.setLong(FB, 0L); hi.setLong(FB, 1L)
        case _  => unknown()
      }
    }
  }

  private def bindValue(e: PExpr, stats: TableStats): Value = e match {
    case Col(n) => colValue(stats.column(n), stats.rowCount)
    case Lit(v)  => new Const(Some(ValueRange.point(v)), nullable = false, nullOnly = false)
    case NullLit => new Const(None, nullable = true, nullOnly = true)
    case Arith(op, l, r) => new ArithValue(op, bindValue(l, stats), bindValue(r, stats))
    case Neg(x) => new NegValue(bindValue(x, stats))
    case If(c, t, f) => new IfValue(bindPred(c, stats), bindValue(t, stats), bindValue(f, stats))
    case CaseWhen(branches, otherwise) =>
      bindValue(branches.foldRight(otherwise.getOrElse(NullLit): PExpr) {
        case ((c, v), acc) => If(c, v, acc)
      }, stats)
    case _: Cmp | _: And | _: Or | _: Not | _: LitBool | _: In | _: Like |
         _: StartsWith | _: EndsWith | _: Contains | _: IsNull | _: IsNotNull |
         _: IsNotTrue =>
      new PredValue(bindPred(e, stats))
    case Opaque(_) => new Const(None, nullable = true, nullOnly = false) // cannot reason
  }

  // ---- bound predicates ------------------------------------------------------

  /** A predicate; `eval(i)` is its outcome set on partition `i`. */
  private abstract class Pred {
    def eval(i: Int): Int
    /** `out(j - from) = eval(indices(j))` for every `j` in `[from, until)`. */
    def evalAt(indices: Array[Int], from: Int, until: Int, out: Array[Byte]): Unit = {
      var j = from
      while (j < until) { out(j - from) = eval(indices(j)).toByte; j += 1 }
    }
    /** Positions of an `n`-partition table outside which `eval` has no TRUE. */
    def window(n: Int): Range = 0 until n
  }

  private final class ConstPred(o: Int) extends Pred { def eval(i: Int): Int = o }

  @inline private def withNull(o: Int, mayBeNull: Boolean): Int = if (mayBeNull) o | N else o

  /** AND or OR: `table` is [[andTable]] or [[orTable]]. A batch evaluates
    * `l` into the output and `r` into this node's own buffer. An AND is TRUE
    * only where both sides may be, so its window is their intersection.
    */
  private final class KleenePred(l: Pred, r: Pred, table: Array[Int]) extends Pred {
    private var scratch = Array.emptyByteArray
    def eval(i: Int): Int = table((l.eval(i) << 3) | r.eval(i))
    override def evalAt(indices: Array[Int], from: Int, until: Int, out: Array[Byte]): Unit = {
      val len = until - from
      if (scratch.length < len) scratch = new Array[Byte](len)
      val rs = scratch
      l.evalAt(indices, from, until, out)
      r.evalAt(indices, from, until, rs)
      var j = 0
      while (j < len) { out(j) = table((out(j) << 3) | rs(j)).toByte; j += 1 }
    }
    override def window(n: Int): Range =
      if (table ne andTable) 0 until n
      else {
        val (a, b) = (l.window(n), r.window(n))
        val from = math.max(a.start, b.start)
        from until math.max(from, math.min(a.end, b.end))
      }
  }

  /** `table(x)`: NOT, IS NOT TRUE or a widened rewrite of `x`. */
  private final class MappedPred(x: Pred, table: Array[Int]) extends Pred {
    def eval(i: Int): Int = table(x.eval(i))
    override def evalAt(indices: Array[Int], from: Int, until: Int, out: Array[Byte]): Unit = {
      x.evalAt(indices, from, until, out)
      var j = 0
      while (j < until - from) { out(j) = table(out(j)).toByte; j += 1 }
    }
  }

  /** Tri-state `a op b` over two known ranges, as T, F or TF, from
    * `hiLo = cmp(a.hi, b.lo)`, `loHi = cmp(b.hi, a.lo)` and, for (in)equality,
    * whether both ranges are the same point (needed for `Eq`/`Neq` only).
    */
  private def decide(op: CmpOp, hiLo: Int, loHi: Int, samePoint: Boolean): Int = op match {
    case CmpOp.Lt  => if (hiLo < 0) T else if (loHi <= 0) F else TF
    case CmpOp.Lte => if (hiLo <= 0) T else if (loHi < 0) F else TF
    case CmpOp.Gt  => if (loHi < 0) T else if (hiLo <= 0) F else TF
    case CmpOp.Gte => if (loHi <= 0) T else if (hiLo < 0) F else TF
    case CmpOp.Eq  => if (samePoint) T else if (hiLo < 0 || loHi < 0) F else TF
    case CmpOp.Neq => not(decide(CmpOp.Eq, hiLo, loHi, samePoint))
  }

  private final class CmpPred(op: CmpOp, a: Value, b: Value) extends Pred {
    private val eq = op == CmpOp.Eq || op == CmpOp.Neq
    def eval(i: Int): Int = {
      a.eval(i); b.eval(i)
      if (a.allNull || b.allNull) N
      else {
        val base =
          if (!a.known || !b.known) TF
          else decide(op, cmp(a.hi, b.lo), cmp(b.hi, a.lo),
                      eq && cmp(a.lo, a.hi) == 0 && cmp(b.lo, b.hi) == 0 && cmp(a.lo, b.lo) == 0)
        withNull(base, a.mayBeNull || b.mayBeNull)
      }
    }
  }

  /** [[decide]] for a column range against a literal, indexed by
    * `3 * sign(cmp(hi, lit)) + sign(cmp(lit, lo)) + 4`: the range is the
    * literal's point exactly when both signs are 0.
    */
  private val cmpTables: Map[CmpOp, Array[Byte]] =
    Seq(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq).map { op =>
      op -> Array.tabulate(9)(k => decide(op, k / 3 - 1, k % 3 - 1, k == 4).toByte)
    }.toMap

  /** [[CmpPred]]'s outcome set for a column against a literal on a partition
    * in state `st` with `nulls` NULLs in `rows` rows; `ranged` is the outcome
    * on its range (ignored unless the partition has one).
    */
  @inline private def colCmp(st: Byte, nulls: Long, rows: Long, ranged: Int): Int =
    if (st == ColumnArrays.Absent) TFN
    else if (nulls == rows) N
    else withNull(if (st == ColumnArrays.Ranged) ranged else TF, nulls > 0)

  /** `Cmp(op, Col, Lit)` over a long or date column and a literal of its
    * family (date days widened to long), evaluated on the column's arrays.
    * The typed leaves repeat [[Pred.evalAt]]'s loop so that `eval` is bound
    * statically there and inlined; the inherited loop calls it virtually.
    *
    * TRUE needs a range that reaches the literal from the compared side
    * (`min < lit` for `<`, `max >= lit` for `>=`, both ends for `=`), so the
    * window holds the positions that the running bounds let reach it; `<>`
    * can be TRUE on any range but the literal's point and spans the table.
    */
  private final class LongsCmp(c: ColumnArrays.Longs, rowCount: Array[Long], op: CmpOp, lit: Long)
      extends Pred {
    private val table = cmpTables(op)
    def eval(i: Int): Int = {
      val st = c.state(i)
      colCmp(st, c.nullCount(i), rowCount(i),
             if (st != ColumnArrays.Ranged) 0
             else table(3 * java.lang.Long.compare(c.max(i), lit) + java.lang.Long.compare(lit, c.min(i)) + 4))
    }
    override def evalAt(indices: Array[Int], from: Int, until: Int, out: Array[Byte]): Unit = {
      var j = from
      while (j < until) { out(j - from) = eval(indices(j)).toByte; j += 1 }
    }
    override def window(n: Int): Range = c.running(rowCount) match {
      case None => 0 until n
      case Some(b) =>
        val (from, until) = op match {
          case CmpOp.Lt  => (0, b.until(lit, strict = true))
          case CmpOp.Lte => (0, b.until(lit, strict = false))
          case CmpOp.Gt  => (b.from(lit, strict = true), n)
          case CmpOp.Gte => (b.from(lit, strict = false), n)
          case CmpOp.Eq  => (b.from(lit, strict = false), b.until(lit, strict = false))
          case CmpOp.Neq => (0, n)
        }
        from until math.max(from, until)
    }
  }

  /** `Cmp(op, Col, Lit)` over a string column and a string literal. */
  private final class StringsCmp(c: ColumnArrays.Strings, rowCount: Array[Long], lit: String,
                                 table: Array[Byte]) extends Pred {
    def eval(i: Int): Int = {
      val st = c.state(i)
      colCmp(st, c.nullCount(i), rowCount(i),
             if (st != ColumnArrays.Ranged) 0
             else table(3 * Integer.signum(Scalar.compareStrings(c.max(i), lit)) +
                        Integer.signum(Scalar.compareStrings(lit, c.min(i))) + 4))
    }
    override def evalAt(indices: Array[Int], from: Int, until: Int, out: Array[Byte]): Unit = {
      var j = from
      while (j < until) { out(j - from) = eval(indices(j)).toByte; j += 1 }
    }
  }

  /** `x IN (vs)`: FALSE unless some value lies in the range; TRUE only on a
    * point range equal to a listed value. A list of one type family is
    * sorted once and searched when the range has that family too.
    */
  private final class InPred(x: Value, vs: Seq[Scalar]) extends Pred {
    private val ends = vs.map { v => val e = new End; e.set(v); e }.toArray
    private val family = if (ends.forall(_.fam == ends(0).fam)) ends(0).fam else FN
    if (family != FN) java.util.Arrays.sort(ends, (p: End, q: End) => cmp(p, q))

    def eval(i: Int): Int = {
      x.eval(i)
      if (x.allNull) N
      else if (!x.known) withNull(TF, x.mayBeNull)
      else {
        var inside = false
        var atMin = false
        if (family != FN && x.lo.fam == family && x.hi.fam == family) {
          // first listed value not below the range's min
          var from = 0
          var to = ends.length
          while (from < to) {
            val mid = (from + to) >>> 1
            if (cmp(ends(mid), x.lo) < 0) from = mid + 1 else to = mid
          }
          inside = from < ends.length && cmp(ends(from), x.hi) <= 0
          atMin = from < ends.length && cmp(ends(from), x.lo) == 0
        } else {
          var k = 0
          while (k < ends.length) {
            if (cmp(x.lo, ends(k)) <= 0 && cmp(ends(k), x.hi) <= 0) inside = true
            if (cmp(ends(k), x.lo) == 0) atMin = true
            k += 1
          }
        }
        val point = cmp(x.lo, x.hi) == 0
        if (!inside) withNull(F, x.mayBeNull)
        else if (point && atMin) withNull(T, x.mayBeNull)
        else withNull(TF, x.mayBeNull)
      }
    }
  }

  private final class StartsWithPred(x: Value, prefix: String) extends Pred {
    private val upper = Rewrites.prefixUpperBound(prefix).orNull
    def eval(i: Int): Int = {
      x.eval(i)
      if (x.allNull) N
      else if (x.known && x.lo.fam == FS && x.hi.fam == FS) {
        val mn = x.lo.s
        val mx = x.hi.s
        val below = Scalar.compareStrings(mx, prefix) < 0
        val above = upper != null && Scalar.compareStrings(mn, upper) >= 0
        if (below || above) withNull(F, x.mayBeNull)
        else if (mn.startsWith(prefix) && mx.startsWith(prefix)) withNull(T, x.mayBeNull)
        else withNull(TF, x.mayBeNull)
      } else withNull(TF, x.mayBeNull)
    }
  }

  /** A string predicate metadata cannot decide: NULL on all-null input,
    * otherwise TRUE or FALSE (plus NULL on nullable input).
    */
  private final class UndecidedPred(x: Value) extends Pred {
    def eval(i: Int): Int = { x.eval(i); if (x.allNull) N else withNull(TF, x.mayBeNull) }
  }

  private final class IsNullPred(x: Value, negated: Boolean) extends Pred {
    def eval(i: Int): Int = {
      x.eval(i)
      val o = if (x.allNull) T else if (!x.mayBeNull) F else TF
      if (negated) not(o) else o
    }
  }

  /** Boolean-valued conditional: evaluate as a value, map back. */
  private final class ValuePred(v: Value) extends Pred {
    def eval(i: Int): Int = {
      v.eval(i)
      if (v.allNull) N
      else if (v.known && v.lo.fam == FB && v.hi.fam == FB)
        withNull((if (v.hi.l != 0L) T else 0) | (if (v.lo.l == 0L) F else 0), v.mayBeNull)
      else withNull(TF, v.mayBeNull)
    }
  }

  private def bindPred(e: PExpr, stats: TableStats): Pred = e match {
    case LitBool(b) => new ConstPred(if (b) T else F)
    case And(l, r)  => new KleenePred(bindPred(l, stats), bindPred(r, stats), andTable)
    case Or(l, r)   => new KleenePred(bindPred(l, stats), bindPred(r, stats), orTable)
    case Not(x)       => new MappedPred(bindPred(x, stats), notTable)
    case IsNotTrue(x) => new MappedPred(bindPred(x, stats), isNotTrueTable)
    case Cmp(op, c @ Col(n), l @ Lit(v)) =>
      (stats.column(n), v) match {
        case (a: ColumnArrays.Longs, Scalar.LongV(x)) if !a.dates => new LongsCmp(a, stats.rowCount, op, x)
        case (a: ColumnArrays.Longs, Scalar.DateV(x)) if a.dates  => new LongsCmp(a, stats.rowCount, op, x.toLong)
        case (a: ColumnArrays.Strings, Scalar.StringV(x))         => new StringsCmp(a, stats.rowCount, x, cmpTables(op))
        case _ => new CmpPred(op, bindValue(c, stats), bindValue(l, stats))
      }
    case Cmp(op, l, r) => new CmpPred(op, bindValue(l, stats), bindValue(r, stats))
    case In(_, vs) if vs.isEmpty => new ConstPred(F)
    case In(x, vs) => new InPred(bindValue(x, stats), vs)
    case Like(x, pattern) =>
      Rewrites.widenLike(x, pattern) match {
        case Rewrites.ExactExpr(p) => bindPred(p, stats)
        case Rewrites.WidenedTo(p) => new MappedPred(bindPred(p, stats), widenedTable)
        case Rewrites.NotWidenable => new UndecidedPred(bindValue(x, stats))
      }
    case StartsWith(x, prefix) => new StartsWithPred(bindValue(x, stats), prefix)
    case EndsWith(x, _) => new UndecidedPred(bindValue(x, stats))
    case Contains(x, _) => new UndecidedPred(bindValue(x, stats))
    case IsNull(x)    => new IsNullPred(bindValue(x, stats), negated = false)
    case IsNotNull(x) => new IsNullPred(bindValue(x, stats), negated = true)
    case If(_, _, _) | CaseWhen(_, _) => new ValuePred(bindValue(e, stats))
    case Col(_) => bindPred(Cmp(CmpOp.Eq, e, Lit(Scalar.BoolV(true))), stats)
    case _ => new ConstPred(TFN) // Opaque, or a value in predicate position
  }
}
