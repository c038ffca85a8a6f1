package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.meta.Scalar
import PExpr._

class RewritesSpec extends AnyFunSuite {

  test("no wildcard becomes exact equality") {
    Rewrites.widenLike(Col("s"), "Basecamp") match {
      case Rewrites.ExactExpr(Cmp(CmpOp.Eq, Col("s"), Lit(Scalar.StringV("Basecamp")))) => ()
      case other => fail(other.toString)
    }
  }

  test("pure trailing %% becomes exact StartsWith") {
    Rewrites.widenLike(Col("s"), "Alpine%") match {
      case Rewrites.ExactExpr(StartsWith(Col("s"), "Alpine")) => ()
      case other => fail(other.toString)
    }
  }

  test("paper example: 'Marked-%-Ridge' widens to STARTSWITH('Marked-')") {
    Rewrites.widenLike(Col("name"), "Marked-%-Ridge") match {
      case Rewrites.WidenedTo(StartsWith(Col("name"), "Marked-")) => ()
      case other => fail(other.toString)
    }
  }

  test("leading wildcard is not widenable") {
    assert(Rewrites.widenLike(Col("s"), "%Ridge") == Rewrites.NotWidenable)
    assert(Rewrites.widenLike(Col("s"), "_arked") == Rewrites.NotWidenable)
  }

  test("underscore stops the literal prefix") {
    Rewrites.widenLike(Col("s"), "Mar_ed%") match {
      case Rewrites.WidenedTo(StartsWith(Col("s"), "Mar")) => ()
      case other => fail(other.toString)
    }
  }

  test("prefix upper bound increments the last character") {
    assert(Rewrites.prefixUpperBound("Marked-").contains("Marked."))
    assert(Rewrites.prefixUpperBound("az").contains("a{"))
    assert(Rewrites.prefixUpperBound("" + Char.MaxValue).isEmpty)
    // Non-incrementable tail falls back to an earlier position.
    assert(Rewrites.prefixUpperBound("a" + Char.MaxValue).contains("b"))
  }

  test("every string with the prefix is below the upper bound") {
    for (p <- Seq("a", "Marked-", "zz", "Alp")) {
      val ub = Rewrites.prefixUpperBound(p).get
      for (suffix <- Seq("", "a", "zzz", ""))
        assert((p + suffix) < ub, s"$p$suffix !< $ub")
    }
  }

  test("property: in code-point order every string with the prefix is below the upper bound") {
    // UTF-16 units around the surrogate range; a prefix may end inside a pair.
    val units = Gen.oneOf('a', 'z', '\uD7FF', '\uD800', '\uD83D', '\uDBFF', '\uDC00', '\uDE00',
                          '\uDFFF', '\uE000', '\uFFFE', '\uFFFF')
    val strings = Gen.listOf(units).map(_.take(4).mkString)
    forAllSeeded(Gen.zip(strings, strings), n = 2000) { case (p, suffix) =>
      Rewrites.prefixUpperBound(p) match {
        case Some(ub) => assert(Scalar.compareStrings(p + suffix, ub) < 0, s"${(p + suffix).map(_.toInt)} !< ${ub.map(_.toInt)}")
        case None     => assert(p.forall(c => c == '\uFFFF' || c == '\uDFFF'), p.map(_.toInt))
      }
    }
    // U+1F7FF is a pair ending in U+DFFF; U+DFFF + 1 = U+E000 sorts below it.
    assert(Rewrites.prefixUpperBound("x\uD83D\uDFFF").contains("x\uD83E"))
    assert(Scalar.compareStrings("x\uD83D\uDFFF", "x\uD83D\uE000") > 0)
  }
}
