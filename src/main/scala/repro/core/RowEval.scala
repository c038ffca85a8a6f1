package repro.core

import repro.meta.Scalar
import PExpr._

/** Row-level evaluation of a [[PExpr]] compiled once per partition: the
  * row-level counterpart of [[RangeEval.bind]].
  *
  * [[RowEval.bind]] resolves columns to their typed arrays and hoists
  * literals, so that the bound predicate evaluates row `r` to TRUE, FALSE or
  * NULL ([[RowEval.T]], [[RowEval.F]], [[RowEval.N]]) without maps, options
  * or boxing. Typed forms exist only for what the workloads run: `AND`, and a
  * long, date or string column compared with a literal of its own family.
  * Every other node is delegated to [[PExprEval]] over the row's lookup view,
  * and so is every predicate holding an [[PExpr.Opaque]]: [[PExprEval]] stays
  * the single definition of row semantics, and the typed nodes reproduce it.
  */
object RowEval {
  final val T = RangeEval.T
  final val F = RangeEval.F
  final val N = RangeEval.N

  /** A predicate bound to one partition's columns. */
  abstract class Pred {
    /** Row `r`'s outcome: [[T]], [[F]] or [[N]]. */
    def eval(r: Int): Int
    final def passes(r: Int): Boolean = eval(r) == T
  }

  def bind(pred: PExpr, cols: Columns): Pred =
    // PExprEval evaluates both sides of AND, so that an Opaque anywhere
    // throws; the typed AND short-circuits, so it takes no Opaque.
    if (PExpr.hasOpaque(pred)) new Delegated(pred, cols) else bindPred(pred, cols)

  private final class Delegated(e: PExpr, cols: Columns) extends Pred {
    def eval(r: Int): Int = PExprEval.evalPred(e, cols.lookupAt(r)) match {
      case Some(true)  => T
      case Some(false) => F
      case None        => N
    }
  }

  private final class AndPred(a: Pred, b: Pred) extends Pred {
    def eval(r: Int): Int = {
      val x = a.eval(r)
      if (x == F) F
      else {
        val y = b.eval(r)
        if (y == F) F else if (x == T && y == T) T else N
      }
    }
  }

  /** The comparison outcomes an operator accepts, as bits of [[sign]]. */
  private def mask(op: CmpOp): Int = op match {
    case CmpOp.Lt  => 1
    case CmpOp.Lte => 3
    case CmpOp.Eq  => 2
    case CmpOp.Neq => 5
    case CmpOp.Gt  => 4
    case CmpOp.Gte => 6
  }
  @inline private def accept(mask: Int, c: Int): Int =
    if ((mask & (if (c < 0) 1 else if (c == 0) 2 else 4)) != 0) T else F

  private final class LongsCmp(values: Array[Long], nulls: Array[Boolean], m: Int, lit: Long) extends Pred {
    def eval(r: Int): Int =
      if (nulls != null && nulls(r)) N else accept(m, java.lang.Long.compare(values(r), lit))
  }
  private final class DatesCmp(days: Array[Int], nulls: Array[Boolean], m: Int, lit: Int) extends Pred {
    def eval(r: Int): Int =
      if (nulls != null && nulls(r)) N else accept(m, Integer.compare(days(r), lit))
  }
  private final class StringsCmp(values: Array[String], m: Int, lit: String) extends Pred {
    def eval(r: Int): Int = {
      val v = values(r)
      if (v == null) N else accept(m, Scalar.compareStrings(v, lit))
    }
  }

  private def bindPred(e: PExpr, cols: Columns): Pred = e match {
    case And(l, r) => new AndPred(bindPred(l, cols), bindPred(r, cols))
    case Cmp(op, Col(name), Lit(v)) =>
      (cols.column(name), v) match {
        case (c: ColumnVec.Longs, Scalar.LongV(x))     => new LongsCmp(c.values, c.nulls, mask(op), x)
        case (c: ColumnVec.Dates, Scalar.DateV(x))     => new DatesCmp(c.days, c.nulls, mask(op), x)
        case (c: ColumnVec.Strings, Scalar.StringV(x)) => new StringsCmp(c.values, mask(op), x)
        case _                                         => new Delegated(e, cols)
      }
    case _ => new Delegated(e, cols)
  }
}
