package repro.core

import repro.meta.Scalar

/** Pruning expression AST — the internal form all pruners operate on.
  *
  * Catalyst expressions (from real query plans) and DataSource V2
  * `sources.Filter`s are both translated into this AST. The AST is designed
  * around what min/max metadata can decide: arithmetic, conditionals,
  * comparisons, boolean connectives, `IN`, `LIKE`-style string predicates
  * and null tests. Anything else becomes [[PExpr.Opaque]], which the range
  * evaluator treats as "unknown" — it can never prune, mirroring how an
  * engine must keep partitions it cannot reason about (§3.1).
  */
sealed trait PExpr extends Product with Serializable

object PExpr {
  // ---- value expressions -------------------------------------------------
  /** Reference to a base table column (stats come from partition metadata). */
  final case class Col(name: String) extends PExpr
  final case class Lit(v: Scalar)    extends PExpr
  case object NullLit                extends PExpr

  sealed trait ArithOp
  object ArithOp { case object Add extends ArithOp; case object Sub extends ArithOp
                   case object Mul extends ArithOp; case object Div extends ArithOp }
  final case class Arith(op: ArithOp, l: PExpr, r: PExpr) extends PExpr
  final case class Neg(e: PExpr) extends PExpr

  /** `IF(cond, t, f)` — the paper's guiding example (§3.1): when metadata
    * cannot decide `cond`, the derived range is the hull of both branches.
    */
  final case class If(cond: PExpr, t: PExpr, f: PExpr) extends PExpr
  final case class CaseWhen(branches: Seq[(PExpr, PExpr)], otherwise: Option[PExpr]) extends PExpr

  // ---- predicates --------------------------------------------------------
  sealed trait CmpOp
  object CmpOp { case object Lt extends CmpOp; case object Lte extends CmpOp
                 case object Gt extends CmpOp; case object Gte extends CmpOp
                 case object Eq extends CmpOp; case object Neq extends CmpOp }
  final case class Cmp(op: CmpOp, l: PExpr, r: PExpr) extends PExpr

  final case class And(l: PExpr, r: PExpr) extends PExpr
  final case class Or(l: PExpr, r: PExpr)  extends PExpr
  final case class Not(e: PExpr)           extends PExpr
  final case class LitBool(b: Boolean)     extends PExpr

  final case class In(e: PExpr, vs: Seq[Scalar]) extends PExpr

  /** SQL LIKE with `%` and `_` wildcards. Range pruning uses the imprecise
    * widening to the literal prefix before the first wildcard (§3.1);
    * row-level evaluation matches the full pattern.
    */
  final case class Like(e: PExpr, pattern: String) extends PExpr
  final case class StartsWith(e: PExpr, prefix: String)  extends PExpr
  final case class EndsWith(e: PExpr, suffix: String)    extends PExpr
  final case class Contains(e: PExpr, infix: String)     extends PExpr

  final case class IsNull(e: PExpr)    extends PExpr
  final case class IsNotNull(e: PExpr) extends PExpr

  /** SQL `e IS NOT TRUE`: true iff `e` evaluates to false *or NULL*. This is
    * the correct inversion for the §4.2 second pass — a row "fails" a
    * predicate when the predicate is not true, which includes the NULL case
    * that plain NOT would miss.
    */
  final case class IsNotTrue(e: PExpr) extends PExpr

  /** A sub-expression the translator could not model. Never prunes. */
  final case class Opaque(description: String) extends PExpr

  // ---- helpers -----------------------------------------------------------
  def and(es: Seq[PExpr]): PExpr = es.reduceOption(And(_, _)).getOrElse(LitBool(true))
  def or(es: Seq[PExpr]): PExpr  = es.reduceOption(Or(_, _)).getOrElse(LitBool(false))

  def lit(v: Long): PExpr    = Lit(Scalar.LongV(v))
  def lit(v: Double): PExpr  = Lit(Scalar.DoubleV(v))
  def lit(v: String): PExpr  = Lit(Scalar.StringV(v))
  def lit(v: Boolean): PExpr = Lit(Scalar.BoolV(v))
  def dateLit(days: Int): PExpr = Lit(Scalar.DateV(days))

  /** The direct sub-expressions of `e`; none for a leaf. */
  def children(e: PExpr): Seq[PExpr] = e match {
    case Arith(_, l, r)   => Seq(l, r)
    case Neg(x)           => Seq(x)
    case If(c, t, f)      => Seq(c, t, f)
    case CaseWhen(bs, o)  => bs.flatMap { case (c, v) => Seq(c, v) } ++ o
    case Cmp(_, l, r)     => Seq(l, r)
    case And(l, r)        => Seq(l, r)
    case Or(l, r)         => Seq(l, r)
    case Not(x)           => Seq(x)
    case In(x, _)         => Seq(x)
    case Like(x, _)       => Seq(x)
    case StartsWith(x, _) => Seq(x)
    case EndsWith(x, _)   => Seq(x)
    case Contains(x, _)   => Seq(x)
    case IsNull(x)        => Seq(x)
    case IsNotNull(x)     => Seq(x)
    case IsNotTrue(x)     => Seq(x)
    case _: Col | _: Lit | NullLit | _: LitBool | _: Opaque => Nil
  }

  /** Columns referenced anywhere in the expression. */
  def columns(e: PExpr): Set[String] = e match {
    case Col(n) => Set(n)
    case _      => children(e).iterator.flatMap(columns).toSet
  }

  /** True iff the expression contains an [[Opaque]] node — such predicates
    * can still narrow pruning (inside ANDs) but can never certify a
    * fully-matching partition.
    */
  def hasOpaque(e: PExpr): Boolean = e match {
    case Opaque(_) => true
    case _         => children(e).exists(hasOpaque)
  }
}
