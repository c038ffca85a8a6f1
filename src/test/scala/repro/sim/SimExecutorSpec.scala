package repro.sim

import org.apache.spark.sql.{functions}
import org.apache.spark.sql.functions.{asc, coalesce, col, count, desc, sum}

import repro.{Oracle, SparkSpec, TestTables}
import repro.core.PExpr
import repro.core.PExpr._
import repro.meta.Scalar
import SimExecutor.{QueryReport, SimConfig}

/** Cross-checks the simulator against Spark (and DuckDB via the oracle):
  * every pruning path must return exactly what an engine without pruning
  * returns.
  */
class SimExecutorSpec extends SparkSpec {

  import Scalar._

  private val cfg = SimConfig(materialize = true)

  private def catalogOf(ts: MemTable*): String => MemTable =
    ts.map(t => t.name -> t).toMap

  private def longs(rows: Seq[IndexedSeq[Scalar]], idx: Int): Seq[Long] =
    rows.map(_(idx)).collect { case LongV(v) => v }

  test("plain filtered scan matches Spark + DuckDB") {
    val t = TestTables.table("t", 1500, 12, MemTable.Layout.Sorted("v"))
    val pred: PExpr = And(Cmp(CmpOp.Gte, Col("v"), PExpr.lit(200000L)),
                          Cmp(CmpOp.Lt, Col("v"), PExpr.lit(400000L)))
    val r = SimExecutor.execute(catalogOf(t), QuerySpec(1, "t", Some(pred)), cfg)
    val df = t.toDF(spark)
    val sparkDf = df.filter("v >= 200000 and v < 400000")
      .groupBy().agg(count(functions.lit(1)).as("cnt"), coalesce(sum("v"), functions.lit(0L)).as("sv"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT count(*) AS cnt, COALESCE(sum(CAST(v AS BIGINT)), 0) AS sv FROM t WHERE CAST(v AS BIGINT) >= 200000 AND CAST(v AS BIGINT) < 400000",
      "t" -> df)
    assert(r.resultCount == sparkDf.collect()(0).getLong(0))
    // Filter pruning on the sorted layout must actually prune.
    assert(r.filter.exists(_.prunedAny))
    assert(r.partitionsScanned < t.numPartitions)
  }

  test("filtered scan returns exactly the qualifying rows") {
    val t = TestTables.table("t", 800, 8, MemTable.Layout.Random(3))
    val pred: PExpr = Cmp(CmpOp.Eq, Col("s"), PExpr.lit("alpha"))
    val r = SimExecutor.execute(catalogOf(t), QuerySpec(2, "t", Some(pred)), cfg)
    val expected = t.toDF(spark).filter("s = 'alpha'").count()
    assert(r.resultCount == expected)
    assert(r.resultRows.size.toLong == expected)
  }

  test("join query matches Spark inner join row count") {
    val probe = TestTables.table("probe", 2000, 20, MemTable.Layout.Sorted("id"), seed = 1)
    val build = TestTables.table("build", 100, 4, MemTable.Layout.Random(9), seed = 2)
    val buildPred: PExpr = Cmp(CmpOp.Lt, Col("id"), PExpr.lit(10L))
    val q = QuerySpec(3, "probe", None,
      join = Some(JoinSpec("build", buildKey = "id", probeKey = "id", buildPred = Some(buildPred))))
    val r = SimExecutor.execute(catalogOf(probe, build), q, cfg)
    val pdf = probe.toDF(spark); val bdf = build.toDF(spark)
    val expected = pdf.join(bdf.filter("id < 10").select(col("id").as("bid")).distinct(),
                            col("id") === col("bid")).count()
    assert(r.resultCount == expected)
    // Selective build side → probe-side join pruning on a sorted layout.
    assert(r.join.exists(_.prunedAny))
  }

  test("join with empty build side prunes the whole probe scan") {
    val probe = TestTables.table("probe", 500, 5, MemTable.Layout.Sorted("id"))
    val build = TestTables.table("build", 50, 2, MemTable.Layout.Random(1))
    val q = QuerySpec(4, "probe", None,
      join = Some(JoinSpec("build", "id", "id", Some(Cmp(CmpOp.Lt, Col("id"), PExpr.lit(-5L))))))
    val r = SimExecutor.execute(catalogOf(probe, build), q, cfg)
    assert(r.resultCount == 0)
    assert(r.join.exists(_.ratio == 1.0))
  }

  test("LIMIT query returns k qualifying rows and prunes with full coverage") {
    val t = TestTables.table("t", 2000, 20, MemTable.Layout.Sorted("v"))
    val pred: PExpr = Cmp(CmpOp.Gte, Col("v"), PExpr.lit(100000L))
    val q = QuerySpec(5, "t", Some(pred), limit = Some(7))
    val r = SimExecutor.execute(catalogOf(t), q, cfg)
    assert(r.resultCount == 7)
    // Every returned row satisfies the predicate.
    r.resultRows.foreach { row =>
      row(1) match { case LongV(v) => assert(v >= 100000L); case o => fail(o.toString) }
    }
    r.limit.foreach { case (outcome, _) =>
      assert(repro.core.LimitPruner.bucket(outcome).startsWith("pruning to"))
    }
    assert(r.partitionsScanned <= 2)
  }

  test("LIMIT with blocking shape still answers correctly without pruning") {
    val t = TestTables.table("t", 500, 10, MemTable.Layout.Random(4))
    val q = QuerySpec(6, "t", None, limit = Some(5), limitShapeSupported = false)
    val r = SimExecutor.execute(catalogOf(t), q, cfg)
    assert(r.resultCount == 5)
    r.limit.foreach { case (outcome, _) =>
      assert(repro.core.LimitPruner.bucket(outcome) == "unsupported shapes")
    }
  }

  test("top-k matches Spark ORDER BY … LIMIT k") {
    val t = TestTables.table("t", 3000, 25, MemTable.Layout.Clustered("v", 0.05, 5))
    val q = QuerySpec(7, "t", None, orderBy = Some(OrderBy("v", desc = true)), limit = Some(10))
    val r = SimExecutor.execute(catalogOf(t), q, cfg)
    val expected = t.toDF(spark).orderBy(desc("v")).limit(10)
      .collect().map(_.getAs[Long]("v")).toSeq
    assert(longs(r.resultRows, 1) == expected)
    assert(r.topk.exists(_.prunedAny))
  }

  test("top-k ASC matches Spark") {
    val t = TestTables.table("t", 1000, 10, MemTable.Layout.Sorted("v"))
    val q = QuerySpec(8, "t", None, orderBy = Some(OrderBy("v", desc = false)), limit = Some(5))
    val r = SimExecutor.execute(catalogOf(t), q, cfg)
    val expected = t.toDF(spark).orderBy(asc("v")).limit(5)
      .collect().map(_.getAs[Long]("v")).toSeq
    assert(longs(r.resultRows, 1) == expected)
  }

  test("ASC top-k over a column with NULLs matches its rendered SQL on Spark") {
    // 700 rows, every 7th `v` NULL: k = 650 reaches past the 600 non-NULL
    // values, so the NULLs' place in the order shows in both results.
    val t = TestTables.table("t", 700, 10, MemTable.Layout.Sorted("v"), nullEvery = 7)
    t.toDF(spark).createOrReplaceTempView("t")
    def values(rows: Seq[Seq[Any]], idx: Int): Seq[Option[Long]] =
      rows.map(_(idx) match { case null => None; case LongV(v) => Some(v); case v: Long => Some(v) })
    for (k <- Seq(5, 650); grouped <- Seq(false, true)) {
      val q = QuerySpec(15, "t", None, groupBy = if (grouped) Some("v") else None,
                        orderBy = Some(OrderBy("v", desc = false)), limit = Some(k.toLong))
      val sql = repro.workload.SqlRender.render(q)
      val idx = if (grouped) 0 else 1
      val fromSpark = spark.sql(sql).collect().toSeq.map(_.toSeq)
      val r = SimExecutor.execute(catalogOf(t), q, cfg)
      assert(values(r.resultRows, idx) == values(fromSpark, idx), sql)
    }
  }

  test("top-k over join probe side (shape 7b) matches Spark") {
    val probe = TestTables.table("probe", 2000, 20, MemTable.Layout.Sorted("v"), seed = 1)
    val build = TestTables.table("build", 200, 4, MemTable.Layout.Random(9), seed = 2)
    val buildPred: PExpr = Cmp(CmpOp.Lt, Col("g"), PExpr.lit(25L))
    val q = QuerySpec(9, "probe", None,
      join = Some(JoinSpec("build", buildKey = "g", probeKey = "g", buildPred = Some(buildPred))),
      orderBy = Some(OrderBy("v", desc = true)), limit = Some(10))
    val r = SimExecutor.execute(catalogOf(probe, build), q, cfg)
    val pdf = probe.toDF(spark); val bdf = build.toDF(spark)
    val keys = bdf.filter("g < 25").select(col("g").as("bg")).distinct()
    val expected = pdf.join(keys, col("g") === col("bg"))
      .orderBy(desc("v")).limit(10).collect().map(_.getAs[Long]("v")).toSeq
    assert(longs(r.resultRows, 1) == expected)
  }

  test("group-by top-k (shape 7d) matches Spark GROUP BY ORDER BY key LIMIT") {
    val t = TestTables.table("t", 3000, 30, MemTable.Layout.Sorted("g"))
    val q = QuerySpec(10, "t", None, groupBy = Some("g"),
      orderBy = Some(OrderBy("g", desc = true)), limit = Some(5))
    val r = SimExecutor.execute(catalogOf(t), q, cfg)
    val expected = t.toDF(spark).groupBy("g").agg(count(functions.lit(1)).as("c"))
      .orderBy(desc("g")).limit(5).collect()
      .map(row => (row.getAs[Long]("g"), row.getAs[Long]("c"))).toSeq
    val got = r.resultRows.map(row => (row(0), row(1))).collect {
      case (LongV(g), LongV(c)) => (g, c)
    }
    assert(got == expected)
    // Sorted-by-g layout: the aggregation's own heap prunes partitions.
    assert(r.topk.exists(_.prunedAny))
  }

  /** GROUP BY `g` ORDER BY `g` LIMIT `k` by brute force: (key, count) of
    * the k best keys, the NULL key last (null).
    */
  private def groupTopK(t: MemTable, g: String, desc: Boolean, k: Int): Seq[(Scalar, Scalar)] = {
    val counts = t.partitions.flatMap(p => (0 until p.rowCount).map(p.lookupAt(_)(g)))
      .groupBy(identity).toSeq.map { case (key, rows) => (key, rows.size.toLong) }
    val (keyed, nullKey) = counts.partition(_._1.isDefined)
    val sorted = keyed.sortWith((a, b) => Scalar.compare(a._1.get, b._1.get).exists(c => if (desc) c > 0 else c < 0))
    (sorted ++ nullKey).take(k).map { case (key, n) => (key.orNull, LongV(n)) }
  }

  private def groupTopKQuery(g: String, desc: Boolean, k: Int): QuerySpec =
    QuerySpec(13, "t", None, groupBy = Some(g), orderBy = Some(OrderBy(g, desc)), limit = Some(k.toLong))

  test("group-by top-k over a string key matches a brute-force group-and-sort") {
    for (layout <- Seq(MemTable.Layout.Sorted("s"), MemTable.Layout.Random(3)); desc <- Seq(true, false)) {
      val t = TestTables.table("t", 1500, 15, layout)
      val r = SimExecutor.execute(catalogOf(t), groupTopKQuery("s", desc, 3), cfg)
      assert(r.resultRows.map(row => (row(0), row(1))) == groupTopK(t, "s", desc, 3), s"$layout desc=$desc")
    }
  }

  test("group-by top-k over a string key column with NULLs matches a brute-force group-and-sort") {
    val vocab = (0 until 12).map(i => f"k$i%02d")
    val rows = (0 until 1200).map { i =>
      Array[Scalar](LongV(i.toLong), if (i % 4 == 0) null else StringV(vocab(i * 7 % vocab.size)))
    }
    for (layout <- Seq(MemTable.Layout.Sorted("s"), MemTable.Layout.Random(5)); desc <- Seq(true, false);
         k <- Seq(5, 15)) {
      val t = MemTable.build("t", IndexedSeq("id", "s"), rows, 12, layout)
      // k = 5, below the number of non-NULL keys: the NULL group, last, is not
      // in the result; k = 15, above it: the NULL group comes last.
      val r = SimExecutor.execute(catalogOf(t), groupTopKQuery("s", desc, k), cfg)
      assert(r.resultRows.map(row => (row(0), row(1))) == groupTopK(t, "s", desc, k), s"$layout desc=$desc k=$k")
      assert(r.resultCount == r.resultRows.size)
    }
  }

  test("top-k with LIMIT 0 returns no rows, with and without GROUP BY") {
    val t = TestTables.table("t", 1000, 10, MemTable.Layout.Sorted("v"), nullEvery = 9)
    val plain = QuerySpec(14, "t", None, orderBy = Some(OrderBy("v", desc = true)), limit = Some(0))
    for (q <- Seq(plain, groupTopKQuery("g", desc = true, 0), groupTopKQuery("s", desc = false, 0))) {
      val r = SimExecutor.execute(catalogOf(t), q, cfg)
      assert(r.resultCount == 0 && r.resultRows.isEmpty, s"$q")
    }
  }

  test("order by aggregate (unsupported shape) still answers correctly, no top-k pruning") {
    val t = TestTables.table("t", 1000, 10, MemTable.Layout.Sorted("g"))
    val q = QuerySpec(11, "t", None, groupBy = Some("g"),
      orderBy = Some(OrderBy("cnt", desc = true, aggregated = true)), limit = Some(3))
    val r = SimExecutor.execute(catalogOf(t), q, cfg)
    assert(r.topk.isEmpty)
    assert(r.partitionsScanned == t.numPartitions) // full scan, as the paper expects
  }

  test("pruning ratios are consistent: scanned + pruned = eligible") {
    val t = TestTables.table("t", 1000, 10, MemTable.Layout.Sorted("v"))
    val pred: PExpr = Cmp(CmpOp.Gte, Col("v"), PExpr.lit(900000L))
    val r = SimExecutor.execute(catalogOf(t), QuerySpec(12, "t", Some(pred)), cfg)
    assert(r.partitionsScanned + (r.filter.map(_.pruned).getOrElse(0)) == r.partitionsEligible)
  }
}
