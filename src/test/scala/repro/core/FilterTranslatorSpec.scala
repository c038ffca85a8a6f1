package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.sources

import repro.meta.Scalar
import PExpr._

class FilterTranslatorSpec extends AnyFunSuite {

  test("comparison filters") {
    assert(FilterTranslator.translate(sources.EqualTo("a", 5)).contains(
      Cmp(CmpOp.Eq, Col("a"), Lit(Scalar.LongV(5)))))
    assert(FilterTranslator.translate(sources.GreaterThan("a", 5L)).contains(
      Cmp(CmpOp.Gt, Col("a"), Lit(Scalar.LongV(5)))))
    assert(FilterTranslator.translate(sources.LessThanOrEqual("a", 1.5)).contains(
      Cmp(CmpOp.Lte, Col("a"), Lit(Scalar.DoubleV(1.5)))))
  }

  test("date values map to DateV") {
    FilterTranslator.translate(sources.GreaterThan("d", java.sql.Date.valueOf("1995-06-17"))) match {
      case Some(Cmp(CmpOp.Gt, Col("d"), Lit(Scalar.DateV(days)))) =>
        assert(days == java.time.LocalDate.parse("1995-06-17").toEpochDay.toInt)
      case other => fail(other.toString)
    }
  }

  test("IN, null tests, string predicates") {
    assert(FilterTranslator.translate(sources.In("s", Array("a", "b"))).contains(
      In(Col("s"), Seq(Scalar.StringV("a"), Scalar.StringV("b")))))
    assert(FilterTranslator.translate(sources.IsNull("x")).contains(IsNull(Col("x"))))
    assert(FilterTranslator.translate(sources.IsNotNull("x")).contains(IsNotNull(Col("x"))))
    assert(FilterTranslator.translate(sources.StringStartsWith("s", "Al")).contains(StartsWith(Col("s"), "Al")))
    assert(FilterTranslator.translate(sources.StringEndsWith("s", "ne")).contains(EndsWith(Col("s"), "ne")))
    assert(FilterTranslator.translate(sources.StringContains("s", "pi")).contains(Contains(Col("s"), "pi")))
  }

  test("nested and/or/not") {
    val f = sources.And(sources.GreaterThan("x", 1), sources.Or(sources.LessThan("y", 2), sources.Not(sources.EqualTo("z", 3))))
    FilterTranslator.translate(f) match {
      case Some(And(_, Or(_, Not(_)))) => ()
      case other => fail(other.toString)
    }
  }

  test("untranslatable values yield None, not garbage") {
    assert(FilterTranslator.translate(sources.EqualTo("a", new Object)).isEmpty)
    assert(FilterTranslator.translate(sources.And(sources.EqualTo("a", new Object), sources.EqualTo("b", 1))).isEmpty)
    assert(FilterTranslator.translate(sources.EqualNullSafe("a", 1)).isEmpty)
  }

  test("always true/false") {
    assert(FilterTranslator.translate(sources.AlwaysTrue).contains(LitBool(true)))
    assert(FilterTranslator.translate(sources.AlwaysFalse).contains(LitBool(false)))
  }

  test("translated filters are row-evaluable (no Opaque)") {
    val fs = Seq[sources.Filter](
      sources.EqualTo("a", 5), sources.In("s", Array("a")), sources.IsNull("x"),
      sources.StringStartsWith("s", "p"),
      sources.And(sources.GreaterThan("x", 1), sources.LessThan("x", 9)))
    fs.foreach { f =>
      val p = FilterTranslator.translate(f).get
      assert(!PExpr.hasOpaque(p))
    }
  }

  test("quoted attribute names name one column; nested fields are not translated") {
    assert(FilterTranslator.translate(sources.GreaterThan("`a.b`", 5)).contains(
      Cmp(CmpOp.Gt, Col("a.b"), Lit(Scalar.LongV(5)))))
    assert(FilterTranslator.translate(sources.IsNotNull("`c d`")).contains(IsNotNull(Col("c d"))))
    assert(FilterTranslator.translate(sources.In("`a``b`", Array(1))).contains(
      In(Col("a`b"), Seq(Scalar.LongV(1)))))
    assert(FilterTranslator.translate(sources.EqualTo("a.b", 5)).isEmpty)
    assert(FilterTranslator.translate(sources.EqualTo("`a", 5)).isEmpty)
  }
}
