package repro.core

import scala.util.{Failure, Success, Try}

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.meta.{ColumnStats, PartitionMeta, Scalar}
import repro.sim.MemPartition
import PExpr._

/** The compiled row predicate ([[RowEval]]) against the reference
  * ([[PExprEval.evalPred]]) on random predicates over every [[PExpr]] node,
  * and the columnar [[MemPartition]] against the rows it was built from.
  */
class RowEvalSpec extends AnyFunSuite {

  import Scalar._

  private val schema = IndexedSeq("l", "d", "m", "s", "dt", "b", "z")

  private val longs: Gen[Scalar] = Gen.frequency(
    3 -> Gen.oneOf(Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1, 0L, -1L, 1L),
    5 -> Gen.choose(-5L, 5L)).map(LongV(_))
  private val doubles: Gen[Scalar] = Gen.frequency(
    5 -> Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity,
                   Double.MinValue, Double.MaxValue, 1.5, -1.5, 9.223372036854776E18),
    5 -> Gen.choose(-5, 5).map(_.toDouble)).map(DoubleV(_))
  private val strings: Gen[Scalar] = Gen.oneOf(
    "", "a", "ab", "b", "ba", "\uFFFF", "\uD83D\uDE00", "a\uD83D\uDE00", "\uE000", "%", "_", "a_b",
    "\uFFFFa", "\uD800\uDC00", "\uDBFF\uDFFF")
    .map(StringV(_))
  private val dates: Gen[Scalar] = Gen.choose(-3, 3).map(DateV(_))
  private val bools: Gen[Scalar] = Gen.oneOf(true, false).map(BoolV(_))
  private val anyScalar: Gen[Scalar] = Gen.oneOf(longs, doubles, strings, dates, bools)

  private val columnValues: IndexedSeq[Gen[Scalar]] =
    IndexedSeq(longs, doubles, Gen.oneOf(longs, doubles), strings, dates, bools, Gen.const(null))

  /** Literals of each column's family; the all-NULL column has none. */
  private val ownFamily: IndexedSeq[Gen[Scalar]] = columnValues.init :+ anyScalar

  /** Rows of one partition: per column, no NULLs, some, or only NULLs. */
  private val genRows: Gen[Array[Array[Scalar]]] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 12))
    nullRates <- Gen.listOfN(schema.size, Gen.oneOf(0.0, 0.3, 1.0))
    rows <- Gen.listOfN(n, Gen.sequence[Vector[Scalar], Scalar](schema.indices.map { i =>
      Gen.prob(nullRates(i)).flatMap(isNull => if (isNull) Gen.const(null) else columnValues(i))
    }))
  } yield rows.map(_.toArray).toArray

  private val names = Gen.oneOf(schema :+ "absent")

  private def genValue(depth: Int): Gen[PExpr] =
    if (depth <= 0) Gen.frequency(4 -> names.map(Col(_)), 3 -> anyScalar.map(Lit(_)), 1 -> Gen.const(NullLit))
    else Gen.frequency(
      4 -> names.map(Col(_)),
      3 -> anyScalar.map(Lit(_)),
      1 -> Gen.const(NullLit),
      1 -> Gen.lzy(for {
        op <- Gen.oneOf(ArithOp.Add, ArithOp.Sub, ArithOp.Mul, ArithOp.Div)
        a <- genValue(depth - 1); b <- genValue(depth - 1)
      } yield Arith(op, a, b)),
      1 -> Gen.lzy(genValue(depth - 1).map(Neg(_))),
      1 -> Gen.lzy(for { c <- genPred(depth - 1); t <- genValue(depth - 1); f <- genValue(depth - 1) } yield If(c, t, f)),
      1 -> Gen.lzy(for {
        c <- genPred(depth - 1); v <- genValue(depth - 1); o <- Gen.option(genValue(depth - 1))
      } yield CaseWhen(Seq(c -> v), o)),
      1 -> Gen.lzy(genPred(depth - 1)))

  private val patterns = Gen.oneOf("", "%", "a%", "%b", "_", "a_%", "\uFFFF%", "%\uD83D\uDE00", "a")

  private def genPred(depth: Int): Gen[PExpr] = {
    val v = genValue(math.max(0, depth - 1))
    val leaf = Gen.frequency(
      6 -> (for {
        op <- Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)
        a <- v; b <- v
      } yield Cmp(op, a, b)),
      // The workload's shape: a column against a literal, often of its own family.
      6 -> (for {
        op <- Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)
        i <- Gen.choose(0, schema.size - 1)
        b <- Gen.frequency(3 -> ownFamily(i), 1 -> anyScalar)
      } yield Cmp(op, Col(schema(i)), Lit(b))),
      2 -> (for { a <- v; vs <- Gen.listOf(Gen.oneOf(anyScalar, columnValues(0))) } yield In(a, vs.take(4))),
      1 -> (for { a <- v; p <- patterns } yield Like(a, p)),
      1 -> (for { a <- v; p <- patterns } yield StartsWith(a, p.replace("%", ""))),
      1 -> (for { a <- v; p <- patterns } yield EndsWith(a, p.replace("%", ""))),
      1 -> (for { a <- v; p <- patterns } yield Contains(a, p.replace("%", ""))),
      1 -> v.map(IsNull(_)),
      1 -> v.map(IsNotNull(_)),
      1 -> Gen.oneOf(true, false).map(LitBool(_)),
      1 -> names.map(Col(_)),
      1 -> v, // a value in predicate position
      1 -> Gen.const(Opaque("udf(x)")))
    if (depth <= 0) leaf
    else Gen.frequency(
      4 -> leaf,
      2 -> Gen.lzy(for { a <- genPred(depth - 1); b <- genPred(depth - 1) } yield And(a, b)),
      2 -> Gen.lzy(for { a <- genPred(depth - 1); b <- genPred(depth - 1) } yield Or(a, b)),
      1 -> Gen.lzy(genPred(depth - 1).map(Not(_))),
      1 -> Gen.lzy(genPred(depth - 1).map(IsNotTrue(_))))
  }

  private def lookup(row: Array[Scalar]): PExprEval.RowLookup =
    name => schema.indexOf(name) match {
      case -1 => None
      case i  => Option(row(i))
    }

  private def code(o: Option[Boolean]): Int = o match {
    case Some(true)  => RowEval.T
    case Some(false) => RowEval.F
    case None        => RowEval.N
  }

  /** A value with its exact double bits, so -0.0 differs from 0.0 and NaN equals NaN. */
  private def canon(s: Scalar): Any = s match {
    case DoubleV(d) => ("double", java.lang.Double.doubleToRawLongBits(d))
    case other      => other
  }
  private def canon(cs: ColumnStats): Any = (cs.min.map(canon), cs.max.map(canon), cs.nullCount)

  test("property: the compiled predicate equals PExprEval.evalPred on every row") {
    val gen = for { rows <- genRows; pred <- genPred(3) } yield (rows, pred)
    var rowsChecked = 0
    forAllSeeded(gen, n = 2000) { case (rows, pred) =>
      val bound = RowEval.bind(pred, MemPartition.of(0, schema, rows))
      rows.indices.foreach { r =>
        val want = Try(PExprEval.evalPred(pred, lookup(rows(r))))
        val got = Try(bound.eval(r))
        want match {
          case Success(o) => assert(got == Success(code(o)), s"row ${rows(r).toSeq} of $pred")
          case Failure(_) => assert(got.isFailure, s"row ${rows(r).toSeq} of $pred: expected a failure, got $got")
        }
        rowsChecked += 1
      }
    }
    assert(rowsChecked > 5000)
  }

  test("property: a partition's row views give back the rows it was built from") {
    forAllSeeded(genRows, n = 500) { rows =>
      val p = MemPartition.of(3, schema, rows)
      assert(p.rowCount == rows.length)
      rows.indices.foreach { r =>
        assert(p.data(r).toSeq.map(canon) == rows(r).toSeq.map(canon))
        (schema :+ "absent").foreach(n => assert(p.lookupAt(r)(n).map(canon) == lookup(rows(r))(n).map(canon)))
      }
      assert(p.rows.map(row => schema.map(row(_).map(canon))).toVector ==
             rows.toVector.map(row => schema.map(n => lookup(row)(n).map(canon))))
    }
  }

  /** The zone-map fold over boxed rows that the typed folds replace. */
  private def boxedMeta(id: Int, rows: Array[Array[Scalar]]): PartitionMeta = {
    val stats = schema.indices.map { i =>
      var nulls = 0L
      var lo: Option[Scalar] = None
      var hi: Option[Scalar] = None
      rows.foreach { row =>
        val v = row(i)
        if (v == null) nulls += 1
        else {
          lo = lo.flatMap(Scalar.min(_, v)).orElse(Some(v))
          hi = hi.flatMap(Scalar.max(_, v)).orElse(Some(v))
        }
      }
      schema(i) -> ColumnStats(lo, hi, nulls)
    }.toMap
    PartitionMeta(id, rows.length.toLong, stats)
  }

  test("property: the typed zone-map fold equals the boxed fold, ties at ±0.0 and NaN included") {
    forAllSeeded(genRows, n = 500) { rows =>
      val got = MemPartition.of(5, schema, rows).meta
      val want = boxedMeta(5, rows)
      assert(got.id == want.id && got.rowCount == want.rowCount)
      schema.foreach(n => assert(canon(got.cols(n)) == canon(want.cols(n)), s"column $n of ${rows.map(_.toSeq).toSeq}"))
    }
  }

  test("the first of tied doubles bounds the zone map") {
    val rows = Array(Array[Scalar](DoubleV(-0.0)), Array[Scalar](DoubleV(0.0)), Array[Scalar](DoubleV(Double.NaN)))
    val meta = MemPartition.of(0, IndexedSeq("d"), rows).meta.cols("d")
    assert(canon(meta) == canon(ColumnStats(Some(DoubleV(-0.0)), Some(DoubleV(Double.NaN)), 0L)))
    val flipped = MemPartition.of(0, IndexedSeq("d"), Array(rows(1), rows(0))).meta.cols("d")
    assert(canon(flipped) == canon(ColumnStats(Some(DoubleV(0.0)), Some(DoubleV(0.0)), 0L)))
  }

  test("columns are stored typed, boxed only when families mix or every value is NULL") {
    val rows = Array(
      Array[Scalar](LongV(1), DoubleV(1.0), LongV(1), StringV("a"), DateV(1), BoolV(true), null),
      Array[Scalar](null, DoubleV(2.0), DoubleV(2.0), null, DateV(2), BoolV(false), null))
    val p = MemPartition.of(0, schema, rows)
    assert(p.column("l").isInstanceOf[ColumnVec.Longs])
    assert(p.column("l").asInstanceOf[ColumnVec.Longs].nulls != null)
    assert(p.column("d").asInstanceOf[ColumnVec.Doubles].nulls == null)
    assert(p.column("m").isInstanceOf[ColumnVec.Scalars])
    assert(p.column("s").isInstanceOf[ColumnVec.Strings])
    assert(p.column("dt").isInstanceOf[ColumnVec.Dates])
    assert(p.column("b").isInstanceOf[ColumnVec.Bools])
    assert(p.column("z").isInstanceOf[ColumnVec.Scalars])
    assert(p.column("absent") == null)
  }
}
