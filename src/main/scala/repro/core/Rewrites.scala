package repro.core

import repro.meta.Scalar
import PExpr._

/** Imprecise filter rewrites (§3.1).
  *
  * Query evaluation may only rewrite predicates to *equivalent* forms, but
  * pruning may *widen* them: the rewritten predicate must be implied by the
  * original, so that pruning on the widened form never drops a partition
  * containing matching rows. The canonical example from the paper is
  * `name LIKE 'Marked-%-Ridge'` widened to `STARTSWITH(name, 'Marked-')`.
  */
object Rewrites {

  sealed trait LikeRewrite
  /** Pattern had no wildcards or was a pure prefix — rewrite is equivalent. */
  final case class ExactExpr(p: PExpr) extends LikeRewrite
  /** Rewrite is wider than the original: False still prunes, True does not
    * certify a fully-matching partition.
    */
  final case class WidenedTo(p: PExpr) extends LikeRewrite
  case object NotWidenable extends LikeRewrite

  /** Widen a LIKE pattern for pruning. `%` matches any sequence, `_` any
    * single character; no escape handling (our generators never emit one).
    */
  def widenLike(col: PExpr, pattern: String): LikeRewrite = {
    val wild = pattern.indexWhere(c => c == '%' || c == '_')
    if (wild < 0) ExactExpr(Cmp(CmpOp.Eq, col, Lit(Scalar.StringV(pattern))))
    else {
      val prefix = pattern.substring(0, wild)
      val purePrefix = wild == pattern.length - 1 && pattern.charAt(wild) == '%'
      if (purePrefix) ExactExpr(StartsWith(col, prefix))
      else if (prefix.nonEmpty) WidenedTo(StartsWith(col, prefix))
      else NotWidenable
    }
  }

  /** A string greater than every string starting with `prefix` in
    * [[Scalar.compareStrings]]'s order, if one exists: increment the last
    * incrementable unit and drop what follows. U+DFFF (a low surrogate) is
    * the greatest unit in that order, and U+FFFF the greatest that is not a
    * surrogate; neither is incremented, since U+DFFF + 1 = U+E000 sorts below
    * it. Falling back to an earlier position gives a looser bound, never an
    * unsound one.
    */
  def prefixUpperBound(prefix: String): Option[String] = {
    var i = prefix.length - 1
    while (i >= 0 && (prefix.charAt(i) == Char.MaxValue || prefix.charAt(i) == '\uDFFF')) i -= 1
    if (i < 0) None
    else Some(prefix.substring(0, i) + (prefix.charAt(i) + 1).toChar)
  }

  /** Inversion used by the second pruning pass (§4.2): a row *fails* the
    * predicate when it is not TRUE — which includes the NULL outcome, so the
    * inverted predicate is `p IS NOT TRUE`, not `NOT p`. A partition is
    * fully-matching iff no row satisfies the inverted predicate.
    */
  def invert(p: PExpr): PExpr = IsNotTrue(p)
}
