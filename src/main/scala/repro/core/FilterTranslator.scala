package repro.core

import scala.util.Try

import org.apache.spark.sql.catalyst.analysis.UnresolvedAttribute
import org.apache.spark.sql.sources
import repro.meta.Scalar
import PExpr._

/** Translation of DataSource V2 [[org.apache.spark.sql.sources.Filter]]s
  * (the V1 filter API Catalyst pushes into `SupportsPushDownFilters`)
  * into [[PExpr]].
  *
  * Every filter in this API is also *exactly row-evaluable* by
  * [[PExprEval]], so a successfully translated filter can be accepted by
  * the scan (applied in the reader) rather than left as a residual —
  * which is what lets Catalyst subsequently push LIMIT / TopN below it.
  */
object FilterTranslator {

  /** Some(pexpr) when fully translatable, None otherwise. */
  def translate(f: sources.Filter): Option[PExpr] = f match {
    case sources.EqualTo(a, v)            => cmp(CmpOp.Eq, a, v)
    case sources.GreaterThan(a, v)        => cmp(CmpOp.Gt, a, v)
    case sources.GreaterThanOrEqual(a, v) => cmp(CmpOp.Gte, a, v)
    case sources.LessThan(a, v)           => cmp(CmpOp.Lt, a, v)
    case sources.LessThanOrEqual(a, v)    => cmp(CmpOp.Lte, a, v)
    case sources.In(a, vs) =>
      val scalars = vs.toSeq.map(Scalar.fromAny)
      if (scalars.forall(_.isDefined)) col(a).map(In(_, scalars.flatten)) else None
    case sources.IsNull(a)    => col(a).map(IsNull(_))
    case sources.IsNotNull(a) => col(a).map(IsNotNull(_))
    case sources.And(l, r) =>
      for { a <- translate(l); b <- translate(r) } yield And(a, b)
    case sources.Or(l, r) =>
      for { a <- translate(l); b <- translate(r) } yield Or(a, b)
    case sources.Not(x)   => translate(x).map(Not(_))
    case sources.StringStartsWith(a, p) => col(a).map(StartsWith(_, p))
    case sources.StringEndsWith(a, p)   => col(a).map(EndsWith(_, p))
    case sources.StringContains(a, p)   => col(a).map(Contains(_, p))
    case _: sources.AlwaysTrue  => Some(LitBool(true))
    case _: sources.AlwaysFalse => Some(LitBool(false))
    case _ => None
  }

  private def cmp(op: CmpOp, attribute: String, v: Any): Option[PExpr] =
    for { c <- col(attribute); l <- Scalar.fromAny(v) } yield Cmp(op, c, Lit(l))

  /** The top-level column a filter's attribute names. Spark quotes a name
    * that needs it (`` `a.b` ``, `` `c d` ``); an unquoted dot separates the
    * parts of a nested field, which has no zone map, so a name of more than
    * one part (or a malformed one) is not translated.
    */
  private def col(attribute: String): Option[PExpr] =
    Try(UnresolvedAttribute.parseAttributeName(attribute)).toOption.collect { case Seq(name) => Col(name) }
}
