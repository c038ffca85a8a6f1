package repro.meta

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{ColumnVec, FilterPruner, MatchClass, PExpr}
import Scalar._

class TableStatsSpec extends AnyFunSuite {

  private def meta(id: Int, rows: Long, cols: (String, ColumnStats)*) = PartitionMeta(id, rows, cols.toMap)
  private def cs(lo: Scalar, hi: Scalar, nulls: Long = 0L) = ColumnStats(Some(lo), Some(hi), nulls)

  test("columns transpose to typed arrays; absent and all-null partitions are marked") {
    val t = TableStats.of(Vector(
      meta(0, 3, "a" -> cs(LongV(1), LongV(5), 1), "m" -> cs(LongV(1), LongV(2)), "d" -> cs(DateV(3), DateV(9))),
      meta(1, 2, "a" -> ColumnStats(None, None, 2), "m" -> cs(DoubleV(0.5), DoubleV(1.5))),
      meta(2, 0)))
    assert(t.rowCount.toSeq == Seq(3L, 2L, 0L))
    t.column("a") match {
      case a: ColumnArrays.Longs =>
        assert(!a.dates)
        assert(a.state.toSeq == Seq(ColumnArrays.Ranged, ColumnArrays.NoRange, ColumnArrays.Absent))
        assert(a.nullCount.toSeq == Seq(1L, 2L, 0L))
        assert((a.min(0), a.max(0)) == ((1L, 5L)))
      case other => fail(s"expected longs, got $other")
    }
    t.column("d") match {
      case d: ColumnArrays.Longs => assert(d.dates && d.min(0) == 3L && d.max(0) == 9L)
      case other => fail(s"expected dates, got $other")
    }
    t.column("m") match {
      case m: ColumnArrays.Scalars => assert(m.min.take(2).toSeq == Seq(LongV(1), DoubleV(0.5)))
      case other => fail(s"expected boxed scalars for a mixed column, got $other")
    }
    assert(t.column("zz").state.forall(_ == ColumnArrays.Absent))
  }

  test("ofSeq keeps the given sequence and never returns another sequence's stats") {
    val pred = PExpr.Cmp(PExpr.CmpOp.Lt, PExpr.Col("a"), PExpr.Lit(LongV(10)))
    val low  = Vector(meta(0, 1, "a" -> cs(LongV(0), LongV(5))), meta(1, 1, "a" -> cs(LongV(20), LongV(30))))
    val high = Vector(meta(0, 1, "a" -> cs(LongV(20), LongV(30))), meta(1, 1, "a" -> cs(LongV(0), LongV(5))))
    val classes = Seq(low, high, low, low.toList).map { parts =>
      assert(TableStats.ofSeq(parts).metas == parts)
      FilterPruner.classify(parts, pred).partitions.map(_.cls)
    }
    val (fully, not) = (MatchClass.FullyMatching, MatchClass.NotMatching)
    assert(classes == Seq(Seq(fully, not), Seq(not, fully), Seq(fully, not), Seq(fully, not)))
    assert(TableStats.ofSeq(low).metas eq low)
  }

  test("a partition whose min and max differ in family keeps the column boxed and exact; a missing column is absent") {
    // The zone-map fold over a mixed column gives a long min and a double max.
    val mixed = ColumnVec.of(Array[Scalar](LongV(2), DoubleV(2.5), null)).stats(3)
    assert(mixed == ColumnStats(Some(LongV(2)), Some(DoubleV(2.5)), 1))
    val t = TableStats.of(Vector(meta(0, 4, "x" -> cs(LongV(1), LongV(3))), meta(1, 3, "x" -> mixed), meta(2, 4)))
    t.column("x") match {
      case x: ColumnArrays.Scalars =>
        assert(x.state.toSeq == Seq(ColumnArrays.Ranged, ColumnArrays.Ranged, ColumnArrays.Absent))
        assert(x.nullCount.toSeq == Seq(0L, 1L, 0L))
        assert((x.min(0), x.max(0)) == ((LongV(1), LongV(3))))
        assert((x.min(1), x.max(1)) == ((LongV(2), DoubleV(2.5))))
      case other => fail(s"expected boxed scalars for a column with a mixed partition, got $other")
    }
    assert(t.metas.indices.map(t.record) == t.metas)
  }
}
