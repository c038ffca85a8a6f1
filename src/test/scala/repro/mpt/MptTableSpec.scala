package repro.mpt

import java.nio.file.Files

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{FilterPruner, PExpr}

/** End-to-end tests of the mpt DataSource V2 path: manifest round trips,
  * compile-time filter pruning, LIMIT pruning, top-k pruning with the
  * runtime boundary, and result equivalence against the source DataFrame
  * and DuckDB.
  */
class MptTableSpec extends SparkSpec {

  private def tmpDir(tag: String): String =
    Files.createTempDirectory(s"mpt-$tag").toFile.getAbsolutePath

  private lazy val lineitem: DataFrame = SynthData.lineitem(spark, sf = 0.002).cache()

  private def readMpt(dir: String): DataFrame =
    spark.read.format("repro.mpt.MptTableProvider").load(dir)

  test("manifest round trip preserves schema and stats") {
    val dir = tmpDir("roundtrip")
    val m = MptWriter.write(lineitem, dir, 8, MptWriter.Layout.SortedBy("l_shipdate"))
    val read = MptManifest.read(dir)
    assert(read.schema == m.schema)
    assert(read.partitions.size == m.partitions.size)
    assert(read.partitions.map(_.rowCount).sum == lineitem.count())
    // Sorted layout: per-partition shipdate ranges are (nearly) disjoint.
    val idx = read.schema.fieldNames.indexOf("l_shipdate")
    val ranges = read.partitions.map(p => (p.stats(idx).min.get, p.stats(idx).max.get))
    ranges.sliding(2).foreach {
      case Seq((_, hi), (lo, _)) => assert(repro.meta.Scalar.lte(hi, lo).contains(true))
      case _ => ()
    }
  }

  test("full scan through DSv2 equals the source DataFrame (oracle-checked)") {
    val dir = tmpDir("fullscan")
    MptWriter.write(lineitem, dir, 6, MptWriter.Layout.Random(1))
    val got = readMpt(dir)
    assert(got.count() == lineitem.count())
    val agg = got.groupBy("l_returnflag")
      .agg(count(lit(1)).as("cnt"), round(sum("l_quantity"), 2).as("qty"))
    Oracle.assertEquivalent(agg,
      "SELECT l_returnflag, count(*) AS cnt, round(sum(CAST(l_quantity AS DOUBLE)), 2) AS qty " +
      "FROM li GROUP BY l_returnflag",
      "li" -> lineitem)
  }

  test("filter pushdown prunes partitions on a sorted layout and stays correct") {
    val dir = tmpDir("filter")
    MptWriter.write(lineitem, dir, 10, MptWriter.Layout.SortedBy("l_shipdate"))
    val got = readMpt(dir).filter("l_shipdate >= DATE'1997-01-01'")
    val expected = lineitem.filter("l_shipdate >= DATE'1997-01-01'").count()
    assert(got.count() == expected)
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.totalPartitions == 10)
    assert(stats.afterFilterPruning < 10,
      s"expected compile-time pruning on sorted layout: $stats")
    assert(stats.filesOpened.get <= stats.afterFilterPruning)
  }

  test("filter pruning keeps every qualifying row (range straddles partitions)") {
    val dir = tmpDir("straddle")
    MptWriter.write(lineitem, dir, 10, MptWriter.Layout.SortedBy("l_shipdate"))
    val q = "l_shipdate >= DATE'1994-06-01' AND l_shipdate < DATE'1995-06-01'"
    assert(readMpt(dir).filter(q).count() == lineitem.filter(q).count())
  }

  test("equality + string predicates push down") {
    val dir = tmpDir("strings")
    MptWriter.write(lineitem, dir, 8, MptWriter.Layout.SortedBy("l_returnflag"))
    val got = readMpt(dir).filter("l_returnflag = 'R'")
    assert(got.count() == lineitem.filter("l_returnflag = 'R'").count())
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.afterFilterPruning < stats.totalPartitions)
  }

  test("LIMIT without predicate prunes to a single partition") {
    val dir = tmpDir("limit")
    MptWriter.write(lineitem, dir, 10, MptWriter.Layout.Random(5))
    val rows = readMpt(dir).limit(7).collect()
    assert(rows.length == 7)
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.afterLimitPruning == 1, s"LIMIT pruning should pick 1 partition: $stats")
    assert(stats.limitOutcome == "pruning to = 1 partition")
    assert(stats.filesOpened.get <= 1)
  }

  test("LIMIT with predicate uses fully-matching partitions (§4.2)") {
    val dir = tmpDir("limitpred")
    MptWriter.write(lineitem, dir, 10, MptWriter.Layout.SortedBy("l_shipdate"))
    // A wide range: inner partitions are fully matching.
    val rows = readMpt(dir)
      .filter("l_shipdate >= DATE'1993-01-01' AND l_shipdate < DATE'1998-01-01'")
      .limit(5).collect()
    assert(rows.length == 5)
    rows.foreach { r =>
      val d = r.getAs[java.sql.Date]("l_shipdate").toLocalDate
      assert(!d.isBefore(java.time.LocalDate.parse("1993-01-01")))
      assert(d.isBefore(java.time.LocalDate.parse("1998-01-01")))
    }
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.fullyMatching > 0, s"inner partitions should be fully matching: $stats")
    assert(stats.afterLimitPruning == 1, s"$stats")
  }

  test("LIMIT larger than fully-matching coverage falls back gracefully") {
    val dir = tmpDir("limitbig")
    MptWriter.write(lineitem, dir, 4, MptWriter.Layout.Random(3))
    val n = lineitem.count()
    // Predicate filters ~nothing fully: random layout has no fully-matching
    // partitions under a selective predicate.
    val rows = readMpt(dir).filter("l_quantity >= 25.0").limit(n.toInt).collect()
    assert(rows.length == lineitem.filter("l_quantity >= 25.0").count().toInt)
  }

  test("top-k pushdown: ORDER BY DESC LIMIT k matches the source and prunes") {
    val dir = tmpDir("topk")
    MptWriter.write(lineitem, dir, 12, MptWriter.Layout.SortedBy("l_extendedprice"))
    val got = readMpt(dir).orderBy(desc("l_extendedprice")).limit(5)
      .select("l_extendedprice").collect().map(_.getDouble(0)).toSeq
    val expected = lineitem.orderBy(desc("l_extendedprice")).limit(5)
      .select("l_extendedprice").collect().map(_.getDouble(0)).toSeq
    assert(got == expected)
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.topKPushed, s"$stats")
    // Upfront boundary (§5.4) prunes statically on a sorted layout.
    assert(stats.afterTopKStatic < stats.totalPartitions, s"$stats")
    assert(stats.filesOpened.get <= 2, s"sorted layout should open ~1 file: $stats")
  }

  test("top-k ASC matches the source") {
    val dir = tmpDir("topkasc")
    MptWriter.write(lineitem, dir, 12, MptWriter.Layout.SortedBy("l_extendedprice"))
    val got = readMpt(dir).orderBy(asc("l_extendedprice")).limit(5)
      .select("l_extendedprice").collect().map(_.getDouble(0)).toSeq
    val expected = lineitem.orderBy(asc("l_extendedprice")).limit(5)
      .select("l_extendedprice").collect().map(_.getDouble(0)).toSeq
    assert(got == expected)
  }

  test("top-k with filter: boundary respects the predicate") {
    val dir = tmpDir("topkf")
    MptWriter.write(lineitem, dir, 12, MptWriter.Layout.SortedBy("l_extendedprice"))
    val q = "l_quantity < 10.0"
    val got = readMpt(dir).filter(q).orderBy(desc("l_extendedprice")).limit(8)
      .select("l_extendedprice").collect().map(_.getDouble(0)).toSeq
    val expected = lineitem.filter(q).orderBy(desc("l_extendedprice")).limit(8)
      .select("l_extendedprice").collect().map(_.getDouble(0)).toSeq
    assert(got == expected)
  }

  test("top-k on random layout: runtime boundary skips some partitions") {
    val dir = tmpDir("topkrt")
    // Many small partitions, random layout: the first processed partitions
    // fill the heap and later tasks skip via the shared boundary (with the
    // ordering heuristic, partitions with small maxima are skipped).
    val big = SynthData.lineitem(spark, sf = 0.01)
    MptWriter.write(big, dir, 64, MptWriter.Layout.ClusteredBy("l_orderkey", 2000.0))
    val got = readMpt(dir).orderBy(desc("l_orderkey")).limit(3)
      .select("l_orderkey").collect().map(_.getLong(0)).toSeq
    val expected = big.orderBy(desc("l_orderkey")).limit(3)
      .select("l_orderkey").collect().map(_.getLong(0)).toSeq
    assert(got == expected)
    val stats = ScanMetrics.forTable(dir).get
    val avoided = stats.totalPartitions - stats.filesOpened.get
    assert(avoided > 0, s"expected static+runtime top-k pruning to avoid IO: $stats")
  }

  test("column pruning: projecting one column still works") {
    val dir = tmpDir("colprune")
    MptWriter.write(lineitem, dir, 4, MptWriter.Layout.Random(2))
    val got = readMpt(dir).select("l_quantity").agg(round(sum("l_quantity"), 2)).collect()(0).getDouble(0)
    val expected = lineitem.agg(round(sum("l_quantity"), 2)).collect()(0).getDouble(0)
    assert(math.abs(got - expected) < 1e-6)
  }

  test("count(*) over an empty projection") {
    val dir = tmpDir("countstar")
    MptWriter.write(lineitem, dir, 4, MptWriter.Layout.Random(2))
    assert(readMpt(dir).count() == lineitem.count())
  }

  test("nulls round trip and filter correctly") {
    val dir = tmpDir("nulls")
    val df = spark.range(1000).selectExpr(
      "id", "IF(id % 10 = 0, CAST(NULL AS LONG), id * 2) AS v",
      "IF(id % 7 = 0, CAST(NULL AS STRING), concat('s', CAST(id AS STRING))) AS s")
    MptWriter.write(df, dir, 5, MptWriter.Layout.SortedBy("id"))
    val got = readMpt(dir)
    assert(got.filter("v IS NULL").count() == df.filter("v IS NULL").count())
    assert(got.filter("v IS NOT NULL AND v > 1000").count() ==
           df.filter("v IS NOT NULL AND v > 1000").count())
    assert(got.filter("s IS NULL").count() == df.filter("s IS NULL").count())
  }

  test("all supported types round trip (including booleans and dates)") {
    val dir = tmpDir("types")
    val df = spark.range(100).selectExpr(
      "id", "CAST(id AS INT) AS i", "CAST(id AS DOUBLE) / 3 AS d",
      "concat('v\t tab', CAST(id AS STRING)) AS s",
      "date_add(DATE'2020-01-01', CAST(id AS INT)) AS dt",
      "id % 2 = 0 AS b")
    MptWriter.write(df, dir, 3, MptWriter.Layout.SortedBy("id"))
    val got = readMpt(dir).orderBy("id").collect()
    val exp = df.orderBy("id").collect()
    assert(got.length == exp.length)
    got.zip(exp).foreach { case (g, e) =>
      assert(g.getLong(0) == e.getLong(0))
      assert(g.getInt(1) == e.getInt(1))
      assert(math.abs(g.getDouble(2) - e.getDouble(2)) < 1e-12)
      assert(g.getString(3) == e.getString(3))
      assert(g.getDate(4) == e.getDate(4))
      assert(g.getBoolean(5) == e.getBoolean(5))
    }
  }

  test("IN and LIKE predicates prune through DSv2") {
    val dir = tmpDir("inlike")
    val df = spark.range(1000).selectExpr("id",
      "concat(element_at(array('alpha','bravo','charlie','delta'), CAST(id % 4 + 1 AS INT)), '-', CAST(id AS STRING)) AS s")
    MptWriter.write(df, dir, 8, MptWriter.Layout.SortedBy("s"))
    val inQ = readMpt(dir).filter("s LIKE 'alpha%'")
    assert(inQ.count() == df.filter("s LIKE 'alpha%'").count())
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.afterFilterPruning < stats.totalPartitions, s"$stats")
  }

  test("strings compare in Spark's order: s > '\\uFFFF' returns the supplementary character") {
    import spark.implicits._
    // UTF-16 order puts U+1F600 (a surrogate pair) below U+FFFF; Spark's
    // UTF-8 byte order, which is code-point order, puts it above.
    val df = Seq("\uFFFF", "\uD83D\uDE00", "a").toDF("s")
    def strings(d: DataFrame): Seq[String] = d.collect().map(_.getString(0)).toSeq
    for ((layout, parts) <- Seq(MptWriter.Layout.AsIs -> 1, MptWriter.Layout.SortedBy("s") -> 3)) {
      val dir = tmpDir("codepoints")
      MptWriter.write(df.coalesce(1), dir, parts, layout)
      for (p <- Seq("s > '\uFFFF'", "s >= '\uD83D\uDE00'", "s < '\uD83D\uDE00'", "s LIKE '\uD83D\uDE00%'"))
        assert(strings(readMpt(dir).filter(p)).sorted == strings(df.filter(p)).sorted, s"$layout: $p")
      assert(strings(readMpt(dir).filter("s > '\uFFFF'")) == Seq("\uD83D\uDE00"))
      assert(strings(readMpt(dir).orderBy(col("s").desc).limit(1)) == strings(df.orderBy(col("s").desc).limit(1)))
      assert(strings(readMpt(dir).orderBy("s")) == strings(df.orderBy("s")))
    }
  }

  test("columns named `a.b` and `c d` filter, limit, sort and write like plain Spark") {
    val df = spark.range(200).selectExpr(
      "id", "id % 100 AS `a.b`", "IF(id % 7 = 0, CAST(NULL AS LONG), id % 5) AS `c d`")
    val dir = tmpDir("quoted")
    MptWriter.write(df, dir, 8, MptWriter.Layout.SortedBy("a.b"))
    def ids(d: DataFrame): Seq[Long] = d.select("id").collect().map(_.getLong(0)).toSeq.sorted
    for (p <- Seq("`a.b` > 50", "`c d` = 3", "`a.b` IN (1, 2, 99)", "`c d` IS NOT NULL",
                  "`a.b` > 90 AND `c d` IS NOT NULL"))
      assert(ids(readMpt(dir).filter(p)) == ids(df.filter(p)), p)
    // The write sorted by `a.b`, so a selective range on it prunes.
    readMpt(dir).filter("`a.b` > 90").collect()
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.afterFilterPruning < stats.totalPartitions, s"$stats")
    val limited = readMpt(dir).filter("`a.b` > 50").limit(5).collect()
    assert(limited.length == 5 && limited.forall(_.getAs[Long]("a.b") > 50))
    def top(d: DataFrame): Seq[Long] =
      d.orderBy(col("`a.b`").desc).limit(5).collect().map(_.getAs[Long]("a.b")).toSeq
    assert(top(readMpt(dir)) == top(df))
  }

  test("pushFilters scans what one classification of the manifest keeps (200 sorted partitions)") {
    val df = spark.range(2000).selectExpr("id AS x")
    val dir = tmpDir("classify-once")
    val manifest = MptWriter.write(df, dir, 200, MptWriter.Layout.SortedBy("x"))
    assert(manifest.partitions.size >= 200)
    def xs(d: DataFrame): Seq[Long] = d.collect().map(_.getLong(0)).toSeq.sorted
    // The first range's upper bound lies past the 128th partition, where a
    // cost-based cut-off of `x <= hi` would keep the partitions above it.
    val rnd = new scala.util.Random(12)
    val ranges = (500L, 1700L) +: Seq.fill(4) {
      val a = rnd.nextInt(2000).toLong; val b = rnd.nextInt(2000).toLong
      (math.min(a, b), math.max(a, b))
    }
    for ((lo, hi) <- ranges) {
      val got = readMpt(dir).filter(s"x >= $lo AND x <= $hi")
      assert(xs(got) == xs(df.filter(s"x >= $lo AND x <= $hi")), s"[$lo, $hi]")
      import PExpr.{Cmp, CmpOp, Col}
      val pred = PExpr.And(Cmp(CmpOp.Gte, Col("x"), PExpr.lit(lo)), Cmp(CmpOp.Lte, Col("x"), PExpr.lit(hi)))
      val classified = FilterPruner.classify(manifest.stats, pred)
      val stats = ScanMetrics.forTable(dir).get
      assert(stats.afterFilterPruning == classified.scanCount, s"[$lo, $hi]: $stats")
      assert(stats.fullyMatching == classified.fullyIndices.length, s"[$lo, $hi]: $stats")
    }
  }
}
