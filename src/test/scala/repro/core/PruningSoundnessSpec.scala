package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelper.forAllSeeded
import repro.meta._
import PExpr._

/** The contract every pruner relies on (§2.1): metadata evaluation may
  * produce false positives but NEVER false negatives —
  *
  *  - a partition classified NotMatching contains no qualifying row;
  *  - a partition classified FullyMatching contains only qualifying rows.
  *
  * Verified against exact row-level evaluation over randomly generated data
  * and randomly generated predicate trees.
  */
class PruningSoundnessSpec extends AnyFunSuite {

  import Scalar._

  // U+FFFF sorts below the supplementary characters in code-point order.
  private val vocab = Vector("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                             "\uFFFF", "\uE000b", "\uD83D\uDE00", "a\uD83D\uDE00", "\uDBFF\uDFFFz")

  private type Row = Map[String, Scalar] // value null = SQL NULL

  private val genRow: Gen[Row] = for {
    x <- Gen.chooseNum(-50L, 50L)
    xNull <- Gen.prob(0.1)
    d <- Gen.chooseNum(-100, 100).map(_ / 4.0)
    s <- Gen.oneOf(vocab)
    sNull <- Gen.prob(0.1)
  } yield Map(
    "x" -> (if (xNull) null else LongV(x)),
    "d" -> DoubleV(d),
    "s" -> (if (sNull) null else StringV(s)))

  private val genPartition: Gen[Vector[Row]] =
    Gen.chooseNum(0, 12).flatMap(n => Gen.listOfN(n, genRow).map(_.toVector))

  private def genLeaf: Gen[PExpr] = Gen.oneOf(
    Gen.chooseNum(-60L, 60L).flatMap(v =>
      Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)
        .map(op => Cmp(op, Col("x"), lit(v)): PExpr)),
    Gen.chooseNum(-30, 30).map(v => Cmp(CmpOp.Gt, Col("d"), lit(v / 2.0)): PExpr),
    Gen.oneOf(vocab).map(s => Cmp(CmpOp.Eq, Col("s"), lit(s)): PExpr),
    Gen.oneOf(vocab).map(s => Like(Col("s"), s.take(2) + "%"): PExpr),
    Gen.oneOf(vocab).map(s => Like(Col("s"), "%" + s.drop(3)): PExpr),
    Gen.someOf(vocab).map(ss => In(Col("s"), ss.map(StringV(_)).toSeq): PExpr),
    Gen.const(IsNull(Col("x")): PExpr),
    Gen.const(IsNotNull(Col("s")): PExpr),
    // Arithmetic over two columns, compared to a constant.
    Gen.chooseNum(-80L, 80L).map(v =>
      Cmp(CmpOp.Gt, Arith(ArithOp.Add, Col("x"), Col("d")), lit(v)): PExpr),
    // Conditional expression in the §3.1 style.
    Gen.chooseNum(-40L, 40L).map(v =>
      Cmp(CmpOp.Lt,
          If(Cmp(CmpOp.Eq, Col("s"), lit("alpha")),
             Arith(ArithOp.Mul, Col("x"), lit(2L)), Col("x")),
          lit(v)): PExpr))

  private def genPred(depth: Int): Gen[PExpr] =
    if (depth <= 0) genLeaf
    else Gen.frequency(
      4 -> genLeaf,
      2 -> Gen.lzy(for { a <- genPred(depth - 1); b <- genPred(depth - 1) } yield And(a, b)),
      2 -> Gen.lzy(for { a <- genPred(depth - 1); b <- genPred(depth - 1) } yield Or(a, b)),
      1 -> Gen.lzy(genPred(depth - 1).map(Not(_))))

  private val genCase: Gen[(Vector[Vector[Row]], PExpr)] = for {
    parts <- Gen.listOfN(4, genPartition).map(_.toVector)
    pred <- genPred(3)
  } yield (parts, pred)

  private def metaOf(id: Int, rows: Vector[Row]): PartitionMeta = {
    val cols = Seq("x", "d", "s").map { c =>
      c -> ColumnVec.of(rows.map(r => r(c)).toArray).stats(rows.size)
    }.toMap
    PartitionMeta(id, rows.size.toLong, cols)
  }

  private def lookup(row: Row): PExprEval.RowLookup = name => row.get(name).flatMap(Option(_))

  test("property: NotMatching partitions contain no qualifying row") {
    forAllSeeded(genCase, n = 400) { case (parts, pred) =>
      val metas = parts.zipWithIndex.map { case (rows, i) => metaOf(i, rows) }
      val classified = FilterPruner.classify(metas, pred)
      classified.partitions.foreach { cp =>
        val rows = parts(cp.meta.id)
        val matching = rows.count(r => PExprEval.passes(pred, lookup(r)))
        cp.cls match {
          case MatchClass.NotMatching =>
            assert(matching == 0,
              s"false negative! pred=$pred meta=${cp.meta} had $matching matching rows")
          case MatchClass.FullyMatching =>
            assert(matching == rows.size,
              s"bogus fully-matching! pred=$pred meta=${cp.meta}: $matching/${rows.size}")
          case MatchClass.PartiallyMatching => ()
        }
      }
    }
  }

  test("property: inverted-pass (IS NOT TRUE) certification is sound") {
    forAllSeeded(genCase, n = 200) { case (parts, pred) =>
      val metas = parts.zipWithIndex.map { case (rows, i) => metaOf(i, rows) }
      metas.filter(_.rowCount > 0).foreach { m =>
        val inverted = Rewrites.invert(pred)
        val viaInversion = RangeEval.mayMatch(pred, m) && !RangeEval.mayMatch(inverted, m)
        if (viaInversion) {
          val rows = parts(m.id)
          assert(rows.forall(r => PExprEval.passes(pred, lookup(r))))
        }
      }
    }
  }

  test("property: plain NOT must never be used for certification over nullable data") {
    // Regression guard for the NULL-semantics bug: `x IS NOT TRUE` differs
    // from `NOT x` exactly on NULL rows.
    forAllSeeded(genRow, n = 100) { row =>
      forAllSeeded(genPred(2), n = 10) { pred =>
        val l = lookup(row)
        val p = PExprEval.evalPred(pred, l)
        assert(PExprEval.passes(IsNotTrue(pred), l) == !p.contains(true))
        assert(PExprEval.evalPred(Not(pred), l) == p.map(!_))
      }
    }
  }

  test("property: adaptive pruning tree never over-prunes vs plain evaluation") {
    forAllSeeded(genCase, n = 100) { case (parts, pred) =>
      val metas = parts.zipWithIndex.map { case (rows, i) => metaOf(i, rows) }
      val pruner = new AdaptivePruner(PruningTree.fromPExpr(pred))
      metas.foreach { m =>
        val kept = pruner.mayMatch(m)
        val rows = parts(m.id)
        val matching = rows.count(r => PExprEval.passes(pred, lookup(r)))
        if (!kept) assert(matching == 0, s"tree over-pruned: pred=$pred meta=$m")
      }
    }
  }

  // ---- table-bound evaluation equals per-partition evaluation -------------
  //
  // Stats here are adversarial: long extremes, ±0.0, NaN and infinities, a
  // column mixing LongV and DoubleV, all-null and empty partitions, and
  // columns missing from some partitions.

  private val edgeLongs: Gen[Long] = Gen.oneOf(
    Gen.chooseNum(-20L, 20L),
    Gen.oneOf(Long.MinValue, Long.MinValue + 1, -(1L << 53), 0L, 1L << 53, (1L << 53) + 1,
              Long.MaxValue - 1, Long.MaxValue))
  private val edgeDoubles: Gen[Double] = Gen.oneOf(
    Gen.chooseNum(-20, 20).map(_ / 2.0),
    Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 9.007199254740992e15))
  private val edgeScalars: Gen[Scalar] = Gen.oneOf(
    edgeLongs.map(LongV(_)), edgeDoubles.map(DoubleV(_)), Gen.oneOf(vocab).map(StringV(_)),
    Gen.chooseNum(-3, 3).map(DateV(_)))
  private val edgeColumns: Map[String, Gen[Any]] = Map(
    "x" -> edgeLongs,
    "m" -> Gen.oneOf(edgeLongs, edgeDoubles),
    "d" -> edgeDoubles,
    "s" -> Gen.oneOf(vocab),
    "t" -> Gen.chooseNum(-3, 3).map(d => java.time.LocalDate.ofEpochDay(d.toLong)))

  private def genEdgeMeta(id: Int): Gen[PartitionMeta] = for {
    rows <- Gen.frequency(1 -> Gen.const(0), 5 -> Gen.chooseNum(1, 5))
    present <- Gen.someOf(edgeColumns.keys.toSeq)
    allNull <- Gen.prob(0.2)
    stats <- Gen.sequence[List[(String, ColumnStats)], (String, ColumnStats)](present.map { c =>
      val value = if (allNull) Gen.const(null) else Gen.frequency(1 -> Gen.const(null), 4 -> edgeColumns(c))
      Gen.listOfN(rows, value).map(vs => c -> ColumnVec.of(vs.map(Scalar.fromAny(_).orNull).toArray).stats(rows))
    })
  } yield PartitionMeta(id, rows.toLong, stats.toMap)

  private def genEdgeValue(depth: Int): Gen[PExpr] = {
    val leaf = Gen.frequency(
      3 -> Gen.oneOf("x", "m", "d", "s", "t").map(Col(_): PExpr),
      2 -> edgeScalars.map(Lit(_): PExpr))
    if (depth <= 0) leaf
    else Gen.frequency(
      4 -> leaf,
      1 -> Gen.lzy(for {
        op <- Gen.oneOf(ArithOp.Add, ArithOp.Sub, ArithOp.Mul, ArithOp.Div)
        a <- genEdgeValue(depth - 1); b <- genEdgeValue(depth - 1)
      } yield Arith(op, a, b)),
      1 -> Gen.lzy(genEdgeValue(depth - 1).map(Neg(_))),
      1 -> Gen.lzy(for {
        c <- genEdgePred(depth - 1); a <- genEdgeValue(depth - 1); b <- genEdgeValue(depth - 1)
      } yield If(c, a, b)))
  }

  private def genEdgePred(depth: Int): Gen[PExpr] = {
    val leaf = Gen.frequency(
      5 -> (for {
        op <- Gen.oneOf(CmpOp.Lt, CmpOp.Lte, CmpOp.Gt, CmpOp.Gte, CmpOp.Eq, CmpOp.Neq)
        a <- genEdgeValue(depth); b <- genEdgeValue(depth)
      } yield Cmp(op, a, b)),
      2 -> (for { a <- genEdgeValue(depth); vs <- Gen.listOf(edgeScalars).map(_.take(5)) } yield In(a, vs)),
      1 -> Gen.oneOf(vocab).map(v => Like(Col("s"), v.take(2) + "%" + v.takeRight(1))),
      1 -> genEdgeValue(depth).map(IsNull(_)),
      1 -> genEdgeValue(depth).map(IsNotNull(_)))
    if (depth <= 0) leaf
    else Gen.frequency(
      3 -> leaf,
      2 -> Gen.lzy(for { a <- genEdgePred(depth - 1); b <- genEdgePred(depth - 1) } yield And(a, b)),
      2 -> Gen.lzy(for { a <- genEdgePred(depth - 1); b <- genEdgePred(depth - 1) } yield Or(a, b)),
      1 -> Gen.lzy(genEdgePred(depth - 1).map(Not(_))),
      1 -> Gen.lzy(genEdgePred(depth - 1).map(IsNotTrue(_))))
  }

  test("property: a table-bound predicate at index i equals it bound over partition i alone") {
    val genTable = for {
      metas <- Gen.sequence[Vector[PartitionMeta], PartitionMeta]((0 until 6).map(genEdgeMeta))
      pred <- genEdgePred(2)
    } yield (metas, pred)
    forAllSeeded(genTable, n = 1000) { case (metas, pred) =>
      val table = TableStats.of(metas)
      val bound = RangeEval.bind(pred, table)
      val classified = FilterPruner.classify(table, pred).partitions
      metas.indices.foreach { i =>
        val alone = TableStats.of(Vector(metas(i)))
        assert(bound.outcomes(i) == RangeEval.bind(pred, alone).outcomes(0),
          s"pred=$pred partition=${metas(i)}")
        assert(classified(i) == FilterPruner.classify(alone, pred).partitions.head)
      }
    }
  }
}
