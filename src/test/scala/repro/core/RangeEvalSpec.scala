package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded

import repro.meta._
import PExpr._

/** §3.1 metadata evaluation, including the paper's IUCN trails example. */
class RangeEvalSpec extends AnyFunSuite {

  private def meta(rowCount: Long, cols: (String, ColumnStats)*): PartitionMeta =
    PartitionMeta(0, rowCount, cols.toMap)

  private def stats(lo: Scalar, hi: Scalar, nulls: Long = 0): ColumnStats =
    ColumnStats(Some(lo), Some(hi), nulls)

  import Scalar._

  // The §3.1 metadata: unit ∈ ["feet","meters"], altit ∈ [934, 7674],
  // name ∈ ["Basecamp", "Unmarked"].
  private val trailsMeta = meta(1000,
    "unit"  -> stats(StringV("feet"), StringV("meters")),
    "altit" -> stats(LongV(934), LongV(7674)),
    "name"  -> stats(StringV("Basecamp"), StringV("Unmarked")))

  private val iucnPredicate: PExpr = And(
    Cmp(CmpOp.Gt,
        If(Cmp(CmpOp.Eq, Col("unit"), lit("feet")),
           Arith(ArithOp.Mul, Col("altit"), lit(0.3048)),
           Col("altit")),
        lit(1500)),
    Like(Col("name"), "Marked-%-Ridge"))

  test("paper §3.1: the example partition is NOT pruned") {
    assert(RangeEval.mayMatch(iucnPredicate, trailsMeta))
    assert(RangeEval.evalPred(iucnPredicate, trailsMeta) == Tri.Unknown)
  }

  test("paper §3.1: IF hull covers both branches when condition is unknown") {
    val ifExpr = If(Cmp(CmpOp.Eq, Col("unit"), lit("feet")),
                    Arith(ArithOp.Mul, Col("altit"), lit(0.3048)),
                    Col("altit"))
    val vr = RangeEval.evalValue(ifExpr, trailsMeta)
    val lo = vr.range.get.min.asInstanceOf[DoubleV].v
    assert(math.abs(lo - 284.6832) < 1e-6)
    // Hull max: the raw altit branch dominates (7674).
    assert(Scalar.asDouble(vr.range.get.max).get == 7674.0)
  }

  test("IF with decided condition uses only that branch") {
    val allFeet = meta(10,
      "unit"  -> stats(StringV("feet"), StringV("feet")),
      "altit" -> stats(LongV(6000), LongV(7674)))
    val ifExpr = If(Cmp(CmpOp.Eq, Col("unit"), lit("feet")),
                    Arith(ArithOp.Mul, Col("altit"), lit(0.3048)),
                    Col("altit"))
    // 6000ft..7674ft → 1828.8m..2339.04m, entirely above 1500 → True
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, ifExpr, lit(1500)), allFeet) == Tri.True)
    // And a partition whose converted range tops out below 1500 is pruned.
    val lowFeet = meta(10,
      "unit"  -> stats(StringV("feet"), StringV("feet")),
      "altit" -> stats(LongV(934), LongV(4000)))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, ifExpr, lit(1500)), lowFeet) == Tri.False)
  }

  test("name range that excludes the LIKE prefix prunes the partition") {
    val m = meta(10, "name" -> stats(StringV("Nook"), StringV("Zebra")))
    assert(RangeEval.evalPred(Like(Col("name"), "Marked-%-Ridge"), m) == Tri.False)
    val m2 = meta(10, "name" -> stats(StringV("Alp"), StringV("Luck")))
    assert(RangeEval.evalPred(Like(Col("name"), "Marked-%-Ridge"), m2) == Tri.False)
  }

  test("LIKE widening never yields True for patterns with inner wildcards") {
    val m = meta(10, "name" -> stats(StringV("Marked-A-Ridge"), StringV("Marked-Z-Ridge")))
    assert(RangeEval.evalPred(Like(Col("name"), "Marked-%-Ridge"), m) == Tri.Unknown)
  }

  test("pure-prefix LIKE can certify fully-matching partitions") {
    val m = meta(10, "species" -> stats(StringV("Alpine Ibex"), StringV("Alpine Marmot")))
    assert(RangeEval.evalPred(Like(Col("species"), "Alpine%"), m) == Tri.True)
  }

  test("startswith tri-state: below, above, inside, straddling") {
    def m(lo: String, hi: String) = meta(10, "s" -> stats(StringV(lo), StringV(hi)))
    val p = StartsWith(Col("s"), "Marked-")
    assert(RangeEval.evalPred(p, m("Aa", "Lz")) == Tri.False)       // entirely below
    assert(RangeEval.evalPred(p, m("Marked.", "Marked;")) == Tri.False) // above prefix block
    assert(RangeEval.evalPred(p, m("Marked-A", "Marked-Z")) == Tri.True)
    assert(RangeEval.evalPred(p, m("Basecamp", "Unmarked")) == Tri.Unknown)
  }

  test("comparisons against an all-null column prune") {
    val m = meta(10, "x" -> ColumnStats(None, None, 10))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, Col("x"), lit(5L)), m) == Tri.False)
    assert(RangeEval.evalPred(IsNull(Col("x")), m) == Tri.True)
    assert(RangeEval.evalPred(IsNotNull(Col("x")), m) == Tri.False)
  }

  test("nullable column blocks all-rows-true verdicts") {
    val m = meta(10, "x" -> stats(LongV(100), LongV(200), nulls = 3))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, Col("x"), lit(5L)), m) == Tri.Unknown)
    val noNulls = meta(10, "x" -> stats(LongV(100), LongV(200)))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, Col("x"), lit(5L)), noNulls) == Tri.True)
  }

  test("IN list pruning") {
    val m = meta(10, "c" -> stats(StringV("BUILDING"), StringV("MACHINERY")))
    assert(RangeEval.evalPred(In(Col("c"), Seq(StringV("AUTO"), StringV("ZZZ"))), m) == Tri.False)
    assert(RangeEval.evalPred(In(Col("c"), Seq(StringV("BUILDING"))), m) == Tri.Unknown)
    val point = meta(10, "c" -> stats(StringV("BUILDING"), StringV("BUILDING")))
    assert(RangeEval.evalPred(In(Col("c"), Seq(StringV("BUILDING"), StringV("X"))), point) == Tri.True)
    assert(RangeEval.evalPred(In(Col("c"), Seq.empty), m) == Tri.False)
  }

  test("NOT flips verdicts (inverted-predicate pass, §4.2)") {
    val m = meta(10, "x" -> stats(LongV(0), LongV(9)))
    val p = Cmp(CmpOp.Gte, Col("x"), lit(15L))
    assert(RangeEval.evalPred(p, m) == Tri.False)
    assert(RangeEval.evalPred(Not(p), m) == Tri.True)
  }

  test("AND/OR Kleene combination over columns") {
    val m = meta(10,
      "a" -> stats(LongV(0), LongV(9)),
      "b" -> stats(LongV(100), LongV(100)))
    val pa = Cmp(CmpOp.Gt, Col("a"), lit(100L))  // False
    val pb = Cmp(CmpOp.Eq, Col("b"), lit(100L))  // True
    val pc = Cmp(CmpOp.Gt, Col("a"), lit(5L))    // Unknown
    assert(RangeEval.evalPred(And(pa, pb), m) == Tri.False)
    assert(RangeEval.evalPred(Or(pa, pb), m) == Tri.True)
    assert(RangeEval.evalPred(And(pb, pc), m) == Tri.Unknown)
    assert(RangeEval.evalPred(Or(pa, pc), m) == Tri.Unknown)
  }

  test("arithmetic on columns: sum range comparison") {
    val m = meta(10, "x" -> stats(LongV(1), LongV(5)), "y" -> stats(LongV(10), LongV(20)))
    val sum = Arith(ArithOp.Add, Col("x"), Col("y"))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, sum, lit(30L)), m) == Tri.False)
    assert(RangeEval.evalPred(Cmp(CmpOp.Gte, sum, lit(11L)), m) == Tri.True)
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, sum, lit(15L)), m) == Tri.Unknown)
  }

  test("CASE WHEN desugars to nested IF") {
    val m = meta(10, "x" -> stats(LongV(0), LongV(9)))
    val c = CaseWhen(Seq((Cmp(CmpOp.Lt, Col("x"), lit(100L)), lit(1L))), Some(lit(2L)))
    assert(RangeEval.evalPred(Cmp(CmpOp.Eq, c, lit(1L)), m) == Tri.True)
  }

  test("Opaque never prunes and never certifies") {
    val m = meta(10, "x" -> stats(LongV(0), LongV(9)))
    assert(RangeEval.evalPred(Opaque("udf"), m) == Tri.Unknown)
    assert(RangeEval.evalPred(And(Opaque("udf"), Cmp(CmpOp.Gt, Col("x"), lit(100L))), m) == Tri.False)
    assert(RangeEval.evalPred(Or(Opaque("udf"), Cmp(CmpOp.Gt, Col("x"), lit(100L))), m) == Tri.Unknown)
  }

  test("unknown column is undecidable, not a crash") {
    val m = meta(10, "x" -> stats(LongV(0), LongV(9)))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, Col("nope"), lit(5L)), m) == Tri.Unknown)
  }

  test("empty partitions never may-match") {
    val m = meta(0, "x" -> ColumnStats(None, None, 0))
    assert(!RangeEval.mayMatch(LitBool(true), m))
  }

  test("date range pruning") {
    val m = meta(10, "d" -> stats(DateV(1000), DateV(2000)))
    assert(RangeEval.evalPred(Cmp(CmpOp.Lt, Col("d"), dateLit(500)), m) == Tri.False)
    assert(RangeEval.evalPred(Cmp(CmpOp.Gte, Col("d"), dateLit(1000)), m) == Tri.True)
    assert(RangeEval.evalPred(Cmp(CmpOp.Lt, Col("d"), dateLit(1500)), m) == Tri.Unknown)
  }

  test("division by range containing zero stays unknown") {
    val m = meta(10, "x" -> stats(LongV(10), LongV(20)), "y" -> stats(LongV(-1), LongV(1)))
    val div = Arith(ArithOp.Div, Col("x"), Col("y"))
    assert(RangeEval.evalPred(Cmp(CmpOp.Gt, div, lit(1000L)), m) == Tri.Unknown)
  }

  test("long arithmetic stays exact beyond 2^53; overflow is an unknown range") {
    val p53 = 1L << 53
    val m = meta(1, "a" -> stats(LongV(p53), LongV(p53)))
    val plusOne = Arith(ArithOp.Add, Col("a"), lit(1L))
    assert(RangeEval.mayMatch(Cmp(CmpOp.Gt, plusOne, lit(p53)), m))
    assert(RangeEval.evalPred(Cmp(CmpOp.Eq, plusOne, lit(p53 + 1)), m) == Tri.True)
    assert(FilterPruner.classify(Seq(m), Cmp(CmpOp.Gt, plusOne, lit(p53))).scanSet.size == 1)
    val big = meta(1, "a" -> stats(LongV(Long.MaxValue), LongV(Long.MaxValue)))
    assert(RangeEval.evalValue(plusOne, big).range.isEmpty)
    assert(RangeEval.evalPred(Cmp(CmpOp.Lt, plusOne, lit(0L)), big) == Tri.Unknown)
  }

  test("property: comparisons and double arithmetic agree with ValueRange's Scalar algebra") {
    val genEnd = Gen.oneOf(Gen.chooseNum(-6L, 6L).map(LongV(_): Scalar),
                           Gen.chooseNum(-12, 12).map(v => DoubleV(v / 2.0): Scalar))
    val genRange = for { a <- genEnd; b <- genEnd } yield
      if (Scalar.lte(a, b).contains(true)) ValueRange(a, b) else ValueRange(b, a)
    forAllSeeded(for { a <- genRange; b <- genRange } yield (a, b), n = 500) { case (ra, rb) =>
      val m = meta(10, "a" -> ColumnStats(Some(ra.min), Some(ra.max), 0),
                       "b" -> ColumnStats(Some(rb.min), Some(rb.max), 0))
      def cmp(op: CmpOp) = RangeEval.evalPred(Cmp(op, Col("a"), Col("b")), m)
      assert(cmp(CmpOp.Lt) == ValueRange.ltTri(ra, rb))
      assert(cmp(CmpOp.Lte) == ValueRange.lteTri(ra, rb))
      assert(cmp(CmpOp.Gt) == ValueRange.gtTri(ra, rb))
      assert(cmp(CmpOp.Gte) == ValueRange.gteTri(ra, rb))
      assert(cmp(CmpOp.Eq) == ValueRange.eqTri(ra, rb))
      assert(cmp(CmpOp.Neq) == ValueRange.eqTri(ra, rb).not)
      // Long-only operands stay exact; with a double operand both widen alike.
      val widened = Seq(ra.min, ra.max, rb.min, rb.max).exists(_.isInstanceOf[DoubleV])
      if (widened) {
        def arith(op: ArithOp) = RangeEval.evalValue(Arith(op, Col("a"), Col("b")), m).range
        assert(arith(ArithOp.Add) == ValueRange.add(ra, rb))
        assert(arith(ArithOp.Sub) == ValueRange.subtract(ra, rb))
        assert(arith(ArithOp.Mul) == ValueRange.multiply(ra, rb))
        assert(arith(ArithOp.Div) == ValueRange.divide(ra, rb))
      }
    }
  }
}
