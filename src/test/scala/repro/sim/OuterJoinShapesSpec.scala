package repro.sim

import org.apache.spark.sql.functions.{col, desc}

import repro.{SparkSpec, TestTables}
import repro.core.{FilterPruner, PExpr, TopKPruner}
import repro.core.PExpr.{Cmp, CmpOp, Col}
import repro.meta.Scalar
import SimExecutor.SimConfig

/** The outer-join special cases of §4.3 and Figure 7c:
  * LIMIT pushed through the probe-preserving side of a LEFT OUTER JOIN,
  * and TopK replicated to the build side when the order column comes from
  * the preserved build side.
  */
class OuterJoinShapesSpec extends SparkSpec {

  import Scalar._

  test("LEFT OUTER probe side: LIMIT pruning applies and join pruning is skipped") {
    val probe = TestTables.table("probe", 2000, 20, MemTable.Layout.Sorted("v"), seed = 1)
    val build = TestTables.table("build", 100, 2, MemTable.Layout.Random(2), seed = 2)
    // Build side matches almost nothing — an inner join would prune the
    // probe scan, but the outer join preserves every probe row.
    val q = QuerySpec(1, "probe", None,
      join = Some(JoinSpec("build", "id", "id",
        buildPred = Some(Cmp(CmpOp.Lt, Col("id"), PExpr.lit(-1L))),
        leftOuterProbeSide = true)),
      limit = Some(5))
    val r = SimExecutor.execute(Map("probe" -> probe, "build" -> build), q,
                                SimConfig(materialize = true))
    // §4.3: LIMIT propagates through the preserved side → pruning applies.
    r.limit.foreach { case (outcome, _) =>
      assert(repro.core.LimitPruner.bucket(outcome).startsWith("pruning to"))
    }
    assert(r.resultCount == 5) // outer join preserves all probe rows
    assert(r.join.isEmpty, "join pruning must not run on a preserved probe side")
  }

  test("inner join with the same empty build side returns nothing (contrast)") {
    val probe = TestTables.table("probe", 500, 5, MemTable.Layout.Sorted("v"), seed = 1)
    val build = TestTables.table("build", 100, 2, MemTable.Layout.Random(2), seed = 2)
    val q = QuerySpec(2, "probe", None,
      join = Some(JoinSpec("build", "id", "id",
        buildPred = Some(Cmp(CmpOp.Lt, Col("id"), PExpr.lit(-1L))))))
    val r = SimExecutor.execute(Map("probe" -> probe, "build" -> build), q,
                                SimConfig(materialize = true))
    assert(r.resultCount == 0)
    assert(r.join.exists(_.ratio == 1.0))
  }

  test("figure 7c: TopK replicated to the build side of a build-preserving outer join") {
    // probe LEFT OUTER JOIN build … ORDER BY build.v DESC LIMIT k, with the
    // build side preserved: every build row survives the join, so the top-k
    // over the join equals the top-k over the build scan — pruning the build
    // scan with the boundary is legal (§5.2).
    val build = TestTables.table("build", 2000, 20, MemTable.Layout.Sorted("v"), seed = 3)
    val filtered = FilterPruner.noPredicate(build.metas)
    val res = TopKPruner.run(build.partitions, filtered,
      TopKPruner.TopKQuery("v", 7, desc = true))
    val bdf = build.toDF(spark)
    // Spark reference: right outer join (build preserved), order by build.v.
    val probeDf = TestTables.table("probe", 100, 2, MemTable.Layout.Random(4), seed = 5)
      .toDF(spark).select(col("g").as("pg"))
    val joined = probeDf.join(bdf, probeDf("pg") === bdf("g"), "right_outer")
    val expected = joined.select("v").orderBy(desc("v")).limit(7)
      .collect().map(_.getAs[Long]("v")).toSeq.distinct.take(7)
    val got = res.rows.flatMap(_.orderValue).collect { case LongV(v) => v }
    // The join can duplicate build rows (multiple probe matches); comparing
    // distinct order values verifies the replicated-TopK boundary is sound
    // for selecting *which build rows* can appear.
    assert(got.take(expected.size).zip(expected).forall { case (g, e) => g >= e })
    assert(res.partitionsSkipped > 0, "replicated top-k should prune the build scan")
  }

  test("column stats builder handles mixed nulls") {
    def fold(values: Any*) =
      repro.core.ColumnVec.of(values.map(Scalar.fromAny(_).orNull).toArray).stats(values.size)
    val stats = fold(5L, null, 2L, 9L, null)
    assert(stats.min.contains(LongV(2)))
    assert(stats.max.contains(LongV(9)))
    assert(stats.nullCount == 2)
    val allNull = fold(null, null)
    assert(allNull.min.isEmpty && allNull.max.isEmpty && allNull.nullCount == 2)
  }
}
