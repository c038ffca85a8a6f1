package repro.workload

import repro.core.PExpr
import repro.core.PExpr._
import repro.meta.Scalar
import repro.sim.QuerySpec

/** Renders a [[QuerySpec]] to SQL text. The paper's Table 1 is produced by
  * pattern matching on SQL texts; rendering + re-classifying closes that
  * loop over the synthetic workload.
  */
object SqlRender {

  def renderScalar(s: Scalar): String = s match {
    case Scalar.LongV(v)   => v.toString
    case Scalar.DoubleV(v) => v.toString
    case Scalar.StringV(v) => s"'${v.replace("'", "''")}'"
    case Scalar.DateV(d)   => s"DATE'${java.time.LocalDate.ofEpochDay(d.toLong)}'"
    case Scalar.BoolV(v)   => v.toString.toUpperCase
  }

  def renderExpr(e: PExpr): String = e match {
    case Col(n)  => n
    case Lit(v)  => renderScalar(v)
    case NullLit => "NULL"
    case Arith(op, l, r) =>
      val sym = op match {
        case ArithOp.Add => "+"; case ArithOp.Sub => "-"
        case ArithOp.Mul => "*"; case ArithOp.Div => "/"
      }
      s"(${renderExpr(l)} $sym ${renderExpr(r)})"
    case Neg(x) => s"(-${renderExpr(x)})"
    case If(c, t, f) => s"IF(${renderExpr(c)}, ${renderExpr(t)}, ${renderExpr(f)})"
    case CaseWhen(bs, o) =>
      val cases = bs.map { case (c, v) => s"WHEN ${renderExpr(c)} THEN ${renderExpr(v)}" }.mkString(" ")
      val els = o.map(x => s" ELSE ${renderExpr(x)}").getOrElse("")
      s"CASE $cases$els END"
    case Cmp(op, l, r) =>
      val sym = op match {
        case CmpOp.Lt => "<"; case CmpOp.Lte => "<="; case CmpOp.Gt => ">"
        case CmpOp.Gte => ">="; case CmpOp.Eq => "="; case CmpOp.Neq => "<>"
      }
      s"${renderExpr(l)} $sym ${renderExpr(r)}"
    case And(l, r) => s"(${renderExpr(l)} AND ${renderExpr(r)})"
    case Or(l, r)  => s"(${renderExpr(l)} OR ${renderExpr(r)})"
    case Not(x)    => s"(NOT ${renderExpr(x)})"
    case LitBool(b) => b.toString.toUpperCase
    case In(x, vs) => s"${renderExpr(x)} IN (${vs.map(renderScalar).mkString(", ")})"
    case Like(x, p) => s"${renderExpr(x)} LIKE '${p.replace("'", "''")}'"
    case StartsWith(x, p) => s"STARTSWITH(${renderExpr(x)}, '$p')"
    case EndsWith(x, p)   => s"ENDSWITH(${renderExpr(x)}, '$p')"
    case Contains(x, p)   => s"CONTAINS(${renderExpr(x)}, '$p')"
    case IsNull(x)    => s"${renderExpr(x)} IS NULL"
    case IsNotNull(x) => s"${renderExpr(x)} IS NOT NULL"
    case IsNotTrue(x) => s"(${renderExpr(x)}) IS NOT TRUE"
    case Opaque(d)    => s"/* opaque */ $d"
  }

  def render(q: QuerySpec): String = {
    val sb = new StringBuilder("SELECT ")
    (q.groupBy, q.orderBy) match {
      case (Some(g), Some(ob)) if ob.aggregated => sb.append(s"$g, count(*) AS ${ob.col}")
      case (Some(g), _)                         => sb.append(s"$g, count(*) AS cnt")
      case _                                    => sb.append("*")
    }
    sb.append(s" FROM ${q.table}")
    q.join.foreach { j =>
      val kind = if (j.leftOuterProbeSide) "LEFT OUTER JOIN" else "JOIN"
      sb.append(s" $kind ${j.buildTable} ON ${q.table}.${j.probeKey} = ${j.buildTable}.${j.buildKey}")
      j.buildPred.foreach(p => sb.append(s" AND ${renderExpr(p)}"))
    }
    q.pred.foreach(p => sb.append(s" WHERE ${renderExpr(p)}"))
    q.groupBy.foreach(g => sb.append(s" GROUP BY $g"))
    // The simulator sorts NULLs last in both directions; Spark's ASC
    // default is NULLS FIRST, its DESC default NULLS LAST.
    q.orderBy.foreach { ob =>
      sb.append(s" ORDER BY ${ob.col}")
      sb.append(if (ob.desc) " DESC" else " NULLS LAST")
    }
    q.limit.foreach(k => sb.append(s" LIMIT $k"))
    sb.toString
  }
}
