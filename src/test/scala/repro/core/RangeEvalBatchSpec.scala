package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.meta.{ColumnStats, PartitionMeta, Scalar, TableStats}
import repro.sim.MemPartition
import PExpr._

/** Batch evaluation ([[RangeEval.Bound.outcomesAt]]) against evaluation one
  * partition at a time, and the typed column-against-literal leaves against
  * the generic comparison they replace.
  */
class RangeEvalBatchSpec extends AnyFunSuite {

  import Scalar._
  import RangeEval.{F, N, T}

  private val schema = IndexedSeq("l", "d", "m", "s", "dt", "b")

  private val longs: Gen[Scalar] = Gen.frequency(
    3 -> Gen.oneOf(Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1, 0L, -1L, 1L),
    5 -> Gen.choose(-5L, 5L)).map(LongV(_))
  private val doubles: Gen[Scalar] = Gen.frequency(
    3 -> Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 9.223372036854776E18),
    5 -> Gen.choose(-5, 5).map(_.toDouble)).map(DoubleV(_))
  private val strings: Gen[Scalar] = Gen.oneOf(
    "", "a", "ab", "b", "\uFFFF", "\uFFFFa", "\uE000", "\uD83D\uDE00", "a\uD83D\uDE00", "\uD800\uDC00",
    "\uDBFF\uDFFF").map(StringV(_))
  private val dates: Gen[Scalar] = Gen.choose(-3, 3).map(DateV(_))
  private val bools: Gen[Scalar] = Gen.oneOf(true, false).map(BoolV(_))
  private val anyScalar: Gen[Scalar] = Gen.oneOf(longs, doubles, strings, dates, bools)

  private val columnValues: IndexedSeq[Gen[Scalar]] =
    IndexedSeq(longs, doubles, Gen.oneOf(longs, doubles), strings, dates, bools)

  /** A partition's zone maps, folded from rows: per column no NULLs, some or
    * only NULLs, possibly zero rows, and each column absent at random.
    */
  private def genMeta(id: Int): Gen[PartitionMeta] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 6))
    nullRates <- Gen.listOfN(schema.size, Gen.oneOf(0.0, 0.3, 1.0))
    rows <- Gen.listOfN(n, Gen.sequence[Vector[Scalar], Scalar](schema.indices.map { i =>
      Gen.prob(nullRates(i)).flatMap(isNull => if (isNull) Gen.const(null) else columnValues(i))
    }))
    absent <- Gen.someOf(schema).map(_.toSet).flatMap(s => Gen.frequency(3 -> Gen.const(Set.empty[String]), 1 -> Gen.const(s)))
  } yield {
    val meta = MemPartition.of(id, schema, rows.map(_.toArray).toArray).meta
    meta.copy(cols = meta.cols -- absent)
  }

  private def genTable: Gen[TableStats] =
    Gen.choose(1, 12).flatMap(n => Gen.sequence[Vector[PartitionMeta], PartitionMeta]((0 until n).map(genMeta)))
      .map(TableStats.of)

  private val names = Gen.oneOf(schema :+ "absent")
  private val ops = Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)

  /** A column against a literal: mostly of its own family (the typed
    * leaves), sometimes of another, such as a date column against a long.
    */
  private val colVsLit: Gen[PExpr] = for {
    op <- ops
    i <- Gen.choose(0, schema.size - 1)
    v <- Gen.frequency(3 -> columnValues(i), 1 -> anyScalar, 1 -> longs)
  } yield Cmp(op, Col(schema(i)), Lit(v))

  private def genValue(depth: Int): Gen[PExpr] = {
    val leaf = Gen.frequency(4 -> names.map(Col(_)), 3 -> anyScalar.map(Lit(_)), 1 -> Gen.const(NullLit))
    if (depth <= 0) leaf
    else Gen.frequency(
      8 -> leaf,
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
  }

  private val patterns = Gen.oneOf("", "%", "a%", "%b", "_", "a_%", "\uFFFF%", "\uD83D%", "\uD83D\uDE00%", "a")

  private def genPred(depth: Int): Gen[PExpr] = {
    val v = genValue(math.max(0, depth - 1))
    val leaf = Gen.frequency(
      8 -> colVsLit,
      3 -> (for { op <- ops; a <- v; b <- v } yield Cmp(op, a, b)),
      2 -> (for { a <- v; vs <- Gen.listOf(Gen.oneOf(anyScalar, longs)) } yield In(a, vs.take(4))),
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

  /** A random subset of `0 until n` in random order. */
  private def genIndices(n: Int): Gen[Array[Int]] =
    Gen.zip(Gen.choose(0, n).flatMap(k => Gen.pick(k, 0 until n)), Gen.long)
      .map { case (picked, seed) => new scala.util.Random(seed).shuffle(picked.toVector).toArray }

  test("property: outcomesAt over random indices equals outcomes one partition at a time") {
    val gen = for {
      stats <- genTable
      pred <- genPred(3)
      first <- genIndices(stats.rowCount.length)
      second <- genIndices(stats.rowCount.length)
    } yield (stats, pred, first, second)
    forAllSeeded(gen, n = 3000) { case (stats, pred, first, second) =>
      val bound = RangeEval.bind(pred, stats)
      // One bound predicate evaluates batches of different lengths in turn,
      // so its buffers are reused shorter and longer than before.
      for (indices <- Seq(first, second, first, Array.range(0, stats.rowCount.length))) {
        val out = Array.fill[Byte](indices.length)(-1)
        bound.outcomesAt(indices, out)
        indices.indices.foreach { j =>
          assert(out(j) == bound.outcomes(indices(j)), s"pred=$pred partition=${stats.metas(indices(j))}")
        }
      }
    }
  }

  // ---- the typed leaves against the comparison they replace ----------------

  /** The generic comparison of a column with a literal, copied from
    * RangeEval's `CmpPred` over a `ColValue` and a `Const` but on boxed
    * records: what every `Cmp(op, Col, Lit)` evaluated to before typed leaves.
    */
  private def referenceCmp(op: CmpOp, meta: PartitionMeta, col: String, lit: Scalar): Int = {
    val NC = 2
    def cmp(a: Scalar, b: Scalar): Int = Scalar.compare(a, b).map(Integer.signum).getOrElse(NC)
    def decide(op: CmpOp, hiLo: Int, loHi: Int, samePoint: Boolean): Int = op match {
      case CmpOp.Lt  => if (hiLo < 0) T else if (loHi <= 0) F else T | F
      case CmpOp.Lte => if (hiLo <= 0) T else if (loHi < 0) F else T | F
      case CmpOp.Gt  => if (loHi < 0) T else if (hiLo <= 0) F else T | F
      case CmpOp.Gte => if (loHi <= 0) T else if (hiLo < 0) F else T | F
      case CmpOp.Eq  => if (samePoint) T else if (hiLo < 0 || loHi < 0) F else T | F
      case CmpOp.Neq =>
        val o = decide(CmpOp.Eq, hiLo, loHi, samePoint)
        ((o & T) << 1) | ((o & F) >> 1) | (o & N)
    }
    // ColValue.eval
    val (range, mayBeNull, allNull) = meta.col(col) match {
      case None => (None, true, false)
      case Some(s) =>
        (for (lo <- s.min; hi <- s.max) yield (lo, hi), s.nullCount > 0, s.nullCount == meta.rowCount)
    }
    // CmpPred.eval with b = Const(point lit)
    val eq = op == CmpOp.Eq || op == CmpOp.Neq
    if (allNull) N
    else {
      val base = range match {
        case None => T | F
        case Some((lo, hi)) =>
          decide(op, cmp(hi, lit), cmp(lit, lo), eq && cmp(lo, hi) == 0 && cmp(lit, lit) == 0 && cmp(lo, lit) == 0)
      }
      if (mayBeNull) base | N else base
    }
  }

  test("property: a typed column-against-literal leaf equals the generic comparison") {
    // Long, date and string columns against literals of their own family
    // (typed leaves), and against the other families (generic path).
    val typed = Seq(0 -> longs, 4 -> dates, 3 -> strings)
    val gen = for {
      stats <- genTable
      op <- ops
      (i, own) <- Gen.oneOf(typed)
      lit <- Gen.frequency(4 -> own, 1 -> anyScalar)
    } yield (stats, op, schema(i), lit)
    var typedColumns = 0
    forAllSeeded(gen, n = 3000) { case (stats, op, col, lit) =>
      val bound = RangeEval.bind(Cmp(op, Col(col), Lit(lit)), stats)
      val all = Array.range(0, stats.rowCount.length)
      val out = new Array[Byte](all.length)
      bound.outcomesAt(all, out)
      all.foreach { i =>
        val want = referenceCmp(op, stats.metas(i), col, lit)
        assert(bound.outcomes(i) == want, s"$col $op $lit on ${stats.metas(i)}")
        assert(out(i) == want, s"batch: $col $op $lit on ${stats.metas(i)}")
      }
      if (!stats.column(col).isInstanceOf[repro.meta.ColumnArrays.Scalars]) typedColumns += 1
    }
    assert(typedColumns > 1000)
  }

  test("boundary cases of the typed leaves") {
    def meta(id: Int, rows: Long, cs: ColumnStats) = PartitionMeta(id, rows, Map("c" -> cs))
    val stats = TableStats.of(Vector(
      meta(0, 3, ColumnStats(Some(LongV(Long.MinValue)), Some(LongV(Long.MaxValue)), 0)),
      meta(1, 3, ColumnStats(Some(LongV(5)), Some(LongV(5)), 0)),
      meta(2, 3, ColumnStats(Some(LongV(5)), Some(LongV(5)), 1)),
      meta(3, 3, ColumnStats(None, None, 3)),
      meta(4, 0, ColumnStats(None, None, 0)),
      PartitionMeta(5, 3, Map.empty)))
    def outcomes(op: CmpOp, v: Long): Seq[Int] = {
      val out = new Array[Byte](6)
      RangeEval.bind(Cmp(op, Col("c"), Lit(LongV(v))), stats).outcomesAt(Array.range(0, 6), out)
      out.toSeq.map(_.toInt)
    }
    assert(outcomes(CmpOp.Eq, 5) == Seq(T | F, T, T | N, N, N, T | F | N))
    assert(outcomes(CmpOp.Neq, 5) == Seq(T | F, F, F | N, N, N, T | F | N))
    assert(outcomes(CmpOp.Lt, 5) == Seq(T | F, F, F | N, N, N, T | F | N))
    assert(outcomes(CmpOp.Lte, 5) == Seq(T | F, T, T | N, N, N, T | F | N))
    assert(outcomes(CmpOp.Gt, Long.MaxValue) == Seq(F, F, F | N, N, N, T | F | N))
    assert(outcomes(CmpOp.Gte, Long.MinValue) == Seq(T, T, T | N, N, N, T | F | N))
  }
}
