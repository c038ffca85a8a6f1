package repro.core

import repro.meta.Scalar
import PExpr._

/** Exact row-at-a-time evaluation of [[PExpr]] with SQL null semantics.
  *
  * The reference definition of row semantics: [[RowEval]], which both the
  * simulator and the DSv2 reader bind, delegates to it every node it has no
  * typed form for, and property tests compare [[RowEval]] and the reader
  * with it and certify the soundness of metadata pruning with it (a pruned
  * partition must contain no row for which [[evalPred]] returns Some(true);
  * a fully-matching partition must contain only such rows).
  *
  * A row is a resolver from column name to `Option[Scalar]` (None = NULL).
  * Callers adapt their physical rows (Spark rows, typed arrays) with the
  * schema in hand — in particular date columns must be surfaced as
  * [[Scalar.DateV]] so they compare against date literals.
  */
object PExprEval {
  type RowLookup = String => Option[Scalar]

  /** SQL value semantics: None = NULL. Throws on unresolvable [[Opaque]]. */
  def evalValue(e: PExpr, row: RowLookup): Option[Scalar] = e match {
    case Col(n)  => row(n)
    case Lit(v)  => Some(v)
    case NullLit => None

    case Arith(op, l, r) =>
      for {
        a <- evalValue(l, row); b <- evalValue(r, row)
        x <- Scalar.asDouble(a); y <- Scalar.asDouble(b)
        out <- op match {
          case ArithOp.Add => Some(x + y)
          case ArithOp.Sub => Some(x - y)
          case ArithOp.Mul => Some(x * y)
          case ArithOp.Div => if (y == 0.0) None else Some(x / y)
        }
      } yield Scalar.DoubleV(out)

    case Neg(x) =>
      for { a <- evalValue(x, row); d <- Scalar.asDouble(a) } yield Scalar.DoubleV(-d)

    case If(c, t, f) =>
      evalPred(c, row) match {
        case Some(true) => evalValue(t, row)
        case _          => evalValue(f, row) // false and NULL both take the else-branch
      }

    case CaseWhen(branches, otherwise) =>
      branches.find { case (c, _) => evalPred(c, row).contains(true) } match {
        case Some((_, v)) => evalValue(v, row)
        case None         => otherwise.flatMap(evalValue(_, row))
      }

    case p => // predicate in value position
      evalPred(p, row).map(Scalar.BoolV)
  }

  /** SQL predicate semantics: Some(true/false) or None for NULL. */
  def evalPred(e: PExpr, row: RowLookup): Option[Boolean] = e match {
    case LitBool(b) => Some(b)

    case And(l, r) =>
      (evalPred(l, row), evalPred(r, row)) match {
        case (Some(false), _) | (_, Some(false)) => Some(false)
        case (Some(true), Some(true))            => Some(true)
        case _                                   => None
      }
    case Or(l, r) =>
      (evalPred(l, row), evalPred(r, row)) match {
        case (Some(true), _) | (_, Some(true)) => Some(true)
        case (Some(false), Some(false))        => Some(false)
        case _                                 => None
      }
    case Not(x) => evalPred(x, row).map(!_)

    case Cmp(op, l, r) =>
      for {
        a <- evalValue(l, row); b <- evalValue(r, row)
        c <- Scalar.compare(a, b)
      } yield op match {
        case CmpOp.Lt  => c < 0
        case CmpOp.Lte => c <= 0
        case CmpOp.Gt  => c > 0
        case CmpOp.Gte => c >= 0
        case CmpOp.Eq  => c == 0
        case CmpOp.Neq => c != 0
      }

    case In(x, vs) =>
      evalValue(x, row).map(a => vs.exists(v => Scalar.eq(a, v).contains(true)))

    case Like(x, pattern) =>
      asString(x, row).map(s => likeRegex(pattern).matcher(s).matches())
    case StartsWith(x, p) => asString(x, row).map(_.startsWith(p))
    case EndsWith(x, p)   => asString(x, row).map(_.endsWith(p))
    case Contains(x, p)   => asString(x, row).map(_.contains(p))

    case IsNull(x)    => Some(evalValue(x, row).isEmpty)
    case IsNotNull(x) => Some(evalValue(x, row).nonEmpty)
    case IsNotTrue(x) => Some(!evalPred(x, row).contains(true))

    case Col(_) =>
      evalValue(e, row).flatMap { case Scalar.BoolV(b) => Some(b); case _ => None }

    case Opaque(d) =>
      throw new IllegalStateException(s"cannot row-evaluate opaque predicate: $d")

    case _ => None
  }

  /** Row passes the filter iff the predicate evaluates to true (not NULL). */
  def passes(pred: PExpr, row: RowLookup): Boolean = evalPred(pred, row).contains(true)

  private def asString(x: PExpr, row: RowLookup): Option[String] =
    evalValue(x, row).flatMap { case Scalar.StringV(s) => Some(s); case _ => None }

  private val regexCache = new java.util.concurrent.ConcurrentHashMap[String, java.util.regex.Pattern]()
  private def likeRegex(pattern: String): java.util.regex.Pattern =
    regexCache.computeIfAbsent(pattern, p => {
      val sb = new StringBuilder
      p.foreach {
        case '%' => sb.append(".*")
        case '_' => sb.append('.')
        case c   => sb.append(java.util.regex.Pattern.quote(c.toString))
      }
      java.util.regex.Pattern.compile(sb.toString, java.util.regex.Pattern.DOTALL)
    })
}
