package perfbench

import java.nio.file.{Files, Path}

import scala.collection.mutable

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.connector.expressions.{NamedReference, SortDirection}
import org.apache.spark.sql.functions.col

import repro.SynthData
import repro.core._
import repro.meta.PartitionMeta
import repro.mpt.{MptInputPartition, MptManifest, MptReaderFactory, MptWriter, ScanMetrics}

/** The two `mpt` DataSource V2 workloads.
  *
  * Both hold the same rows (`SynthData.lineitem` and `orders`), written by
  * `MptWriter` sorted on the date column, plus a Parquet copy of the same
  * rows that serves as the result oracle and as the reference engine.
  *
  *  - `mpt_scan`: few large partitions and low-selectivity TPC-H-lite
  *    queries, so the partition reader does most of the work.
  *  - `mpt_selective`: many small partitions and selective, production-like
  *    queries, so manifest reading, planning and pruning dominate.
  *
  * One client runs the fixed query list in a closed loop.
  */
object Dsv2Bench {

  /** Rows come from `SynthData` at scale factor `sf` (6 M lineitem rows per
    * unit); the partition counts set the shape of each workload.
    */
  final case class Shape(sf: Double, lineitemParts: Int, ordersParts: Int)

  val shapes: Map[String, Shape] = Map(
    "mpt_scan"      -> Shape(sf = 0.01, lineitemParts = 48, ordersParts = 4),
    "mpt_selective" -> Shape(sf = 0.01, lineitemParts = 200, ordersParts = 8))

  /** Parquet files per table in the reference copy. */
  val ParquetFiles = 8
  /** Set-up runs once to warm up, untimed, then `SetupReps` timed times. */
  val SetupReps = 3
  /** Warm-up, the oracle pass included, runs at least this long. */
  val WarmupSeconds = 5.0
  val InstancesPerTemplate = 3
  /** Spark task threads. Two of the four cores of the reference machine
    * leave room for the JIT, GC and OS threads; with four, latencies moved
    * more from one JVM to the next.
    */
  val Cores = math.min(2, Runtime.getRuntime.availableProcessors())

  val MptFormat = "repro.mpt.MptTableProvider"
  val TracedFormat = "perfbench.TracedMptProvider"

  sealed trait Check
  /** Same rows as the Parquet copy, in any order. */
  case object SameRows extends Check
  /** min(k, n) rows, all among the n rows of the query without its LIMIT. */
  final case class AnyK(k: Int, unlimitedSql: String) extends Check

  /** `buildKeysSql` selects the join keys of the build side, which the
    * traced run replays through `JoinPruner`.
    */
  final case class Query(id: Int, tech: String, sql: String, tables: Seq[String],
                         check: Check, buildKeysSql: Option[String] = None)

  private val epoch = java.time.LocalDate.of(1992, 1, 1)
  private def day(n: Int): String = s"DATE '${epoch.plusDays(n.toLong)}'"
  /** l_shipdate spans 2557 days from 1992-01-01. */
  private val ShipDays = 2557

  /** `InstancesPerTemplate` instances of each template, with parameters
    * drawn from `seed`, so that a technique's median does not hang on one
    * parameter choice.
    */
  def queries(workload: String, seed: Long): Vector[Query] = {
    val rnd = new scala.util.Random(seed)
    val li = Seq("lineitem")
    val both = Seq("lineitem", "orders")
    def year(): Int = 1993 + rnd.nextInt(5)
    def yearRange(y: Int) = s"l_shipdate >= DATE '$y-01-01' AND l_shipdate < DATE '${y + 1}-01-01'"
    val templates: Seq[Int => Query] = workload match {
      case "mpt_scan" => Seq(
        id => Query(id, "scan",
          "SELECT count(*) AS n, sum(l_quantity) AS q, sum(l_extendedprice) AS p FROM lineitem", li, SameRows),
        id => Query(id, "filter",
          "SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q, " +
          "sum(l_extendedprice * (1 - l_discount)) AS p FROM lineitem " +
          s"WHERE l_shipdate <= ${day(ShipDays - 30 - rnd.nextInt(90))} GROUP BY l_returnflag, l_linestatus",
          li, SameRows),
        id => Query(id, "filter",
          s"SELECT count(*) AS n, sum(l_extendedprice * l_discount) AS rev FROM lineitem WHERE ${yearRange(year())} " +
          "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24", li, SameRows),
        id => Query(id, "filter",
          s"SELECT count(*) AS n, sum(l_extendedprice) AS p FROM lineitem WHERE l_quantity < ${5 + rnd.nextInt(41)}",
          li, SameRows),
        id => {
          val base = s"SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < ${2 + rnd.nextInt(4)}"
          Query(id, "limit", s"$base LIMIT 100", li, AnyK(100, base))
        },
        id => Query(id, "topk",
          s"SELECT l_extendedprice FROM lineitem ORDER BY l_extendedprice ${if (rnd.nextBoolean()) "DESC" else "ASC"} LIMIT 10",
          li, SameRows),
        id => Query(id, "join",
          "SELECT o_orderstatus, count(*) AS n, sum(l_extendedprice) AS p FROM lineitem " +
          s"JOIN orders ON l_orderkey = o_orderkey WHERE ${yearRange(year())} GROUP BY o_orderstatus",
          both, SameRows, Some("SELECT o_orderkey FROM orders")))
      case "mpt_selective" => Seq(
        id => Query(id, "scan", "SELECT count(*) AS n, sum(o_totalprice) AS p FROM orders", Seq("orders"), SameRows),
        id => Query(id, "filter",
          s"SELECT count(*) AS n, sum(l_extendedprice) AS p FROM lineitem WHERE l_shipdate = ${day(rnd.nextInt(ShipDays))}",
          li, SameRows),
        id => {
          val s = rnd.nextInt(ShipDays - 7)
          Query(id, "filter",
            "SELECT l_linestatus, count(*) AS n, sum(l_quantity) AS q FROM lineitem " +
            s"WHERE l_shipdate >= ${day(s)} AND l_shipdate < ${day(s + 7)} GROUP BY l_linestatus", li, SameRows)
        },
        id => {
          val s = rnd.nextInt(ShipDays - 14)
          Query(id, "filter",
            "SELECT l_returnflag, count(*) AS n FROM lineitem " +
            s"WHERE l_shipdate >= ${day(s)} AND l_shipdate < ${day(s + 14)} " +
            "AND l_returnflag IN ('A', 'R') AND l_linestatus LIKE 'F%' GROUP BY l_returnflag", li, SameRows)
        },
        id => {
          val s = rnd.nextInt(ShipDays - 60)
          val k = Seq(1, 10, 100)(rnd.nextInt(3))
          val base = s"SELECT l_orderkey, l_shipdate FROM lineitem WHERE l_shipdate >= ${day(s)} AND l_shipdate < ${day(s + 60)}"
          Query(id, "limit", s"$base LIMIT $k", li, AnyK(k, base))
        },
        id => Query(id, "topk",
          s"SELECT l_shipdate FROM lineitem WHERE l_shipdate < ${day(30 + rnd.nextInt(ShipDays - 30))} " +
          "ORDER BY l_shipdate DESC LIMIT 10", li, SameRows),
        id => {
          val s = 120 + rnd.nextInt(ShipDays - 127)
          val build = s"o_orderdate >= ${day(s - 90)} AND o_orderdate < ${day(s)}"
          Query(id, "join",
            "SELECT o_orderstatus, count(*) AS n, sum(l_extendedprice) AS p FROM lineitem " +
            s"JOIN orders ON l_orderkey = o_orderkey WHERE l_shipdate >= ${day(s)} AND l_shipdate < ${day(s + 7)} " +
            s"AND $build GROUP BY o_orderstatus", both, SameRows, Some(s"SELECT o_orderkey FROM orders WHERE $build"))
        })
    }
    (0 until InstancesPerTemplate).flatMap(_ => templates).zipWithIndex.map { case (t, i) => t(i) }.toVector
  }

  /** Plan-time partition counts of one table scan (§3–§5): total, after
    * filter, fully-matching, after LIMIT, after static top-k.
    */
  final case class Counts(total: Int, afterFilter: Int, fully: Int, afterLimit: Int, planned: Int) {
    override def toString: String = s"$total/$afterFilter/$fully/$afterLimit/$planned"
  }

  def run(workload: String, cfg: Config, res: Result): Unit = {
    val shape = shapes(workload)
    val (spark, startNs) = res.phase("spark_start")(Env.timeNs(startSpark(cfg.work)))
    try new Dsv2Run(workload, shape, cfg, res, spark, startNs).run()
    finally spark.stop()
  }

  private def startSpark(work: Path): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", Cores * 2)
      // Keep Spark's retained UI state small and fixed, so heap use
      // does not grow with the number of queries a run completes.
      .config("spark.sql.ui.retainedExecutions", "4")
      .config("spark.ui.retainedJobs", "4")
      .config("spark.ui.retainedStages", "4")
      .config("spark.ui.retainedTasks", "100")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Canonical form of a result for comparison: rows sorted by their text. */
  def canonical(rows: Array[Row]): Vector[Seq[Any]] =
    rows.map(_.toSeq).toVector.sortBy(_.map(cell).mkString("\u0001"))

  private def cell(v: Any): String = v match {
    case d: Double => f"$d%.6e"
    case null      => "∅"
    case x         => x.toString
  }

  /** Equal up to floating-point summation order. */
  def sameRows(a: Vector[Seq[Any]], b: Vector[Seq[Any]]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) =>
      x.size == y.size && x.zip(y).forall {
        case (p: Double, q: Double) => math.abs(p - q) <= 1e-6 + 1e-9 * math.max(math.abs(p), math.abs(q))
        case (p, q)                 => p == q
      }
    }
}

private final class Dsv2Run(workload: String, shape: Dsv2Bench.Shape, cfg: Config, res: Result,
                            spark: SparkSession, sparkStartNs: Long) {
  import Dsv2Bench._

  private val queries = Dsv2Bench.queries(workload, cfg.seed)
  private var mptDir = Map.empty[String, String]
  private var pqDir = Map.empty[String, String]

  // Oracle state, filled on the first execution of each query.
  private val expected = mutable.Map.empty[Int, Vector[Seq[Any]]]
  private val supersets = mutable.Map.empty[Int, (Set[Seq[Any]], Int)]
  private val pinned = mutable.Map.empty[Int, Seq[Counts]]

  // Plan-time partitions over every measured execution (pruned_frac).
  private var partsTotal = 0L
  private var partsPlanned = 0L
  private var filesOpened = 0L
  private var runtimeSkipped = 0L
  private var executions = 0L
  private var tracedExecutions = 0L

  def run(): Unit = {
    res.put("workload", workload)
    res.put("seed", cfg.seed)
    setup()
    res.phase("gc")(System.gc())
    res.put("queries", queries.map(q => Map("id" -> q.id, "tech" -> q.tech, "sql" -> q.sql)))

    // Warm-up: the first pass also records the oracle results and counts.
    val (_, oracleNs) = res.phase("oracle_pass")(Env.timeNs(queries.foreach(q => execute(q, MptFormat))))
    res.phase("warmup")(measure(WarmupSeconds - oracleNs / 1e9, traced = false))

    if (!cfg.trace) {
      val (samples, ref) = res.phase("measure")(measure(cfg.seconds, traced = false))
      res.samples("samples", samples)
      res.samples("ref_samples", ref)
      perQueryTable(samples)
    } else traced()
    res.put("pruned", Map("total" -> partsTotal, "planned" -> partsPlanned))
    res.put("heap_used_mb", res.phase("heap")(Env.heapUsedMb()))
  }

  // ---- set-up ------------------------------------------------------------

  /** Write the Parquet copy once, then load the same rows into `mpt`
    * tables `1 + SetupReps` times, into fresh directories; the first load
    * warms up and is not timed, and the last copy serves the queries.
    */
  private def setup(): Unit = {
    val pq = cfg.work.resolve("parquet")
    pqDir = res.phase("parquet_copy")(Map(
      "lineitem" -> writeParquet(SynthData.lineitem(spark, shape.sf, cfg.seed), pq, "lineitem", "l_shipdate"),
      "orders" -> writeParquet(SynthData.orders(spark, shape.sf, cfg.seed + 1), pq, "orders", "o_orderdate")))
    val repSeconds = mutable.ArrayBuffer.empty[Double]
    val writeMs = mutable.ArrayBuffer.empty[Double]
    (0 to SetupReps).foreach { rep =>
      val dir = cfg.work.resolve(s"mpt-$rep")
      val (_, ns) = res.phase("setup")(Env.timeNs {
        val (_, wns) = Env.timeNs(MptWriter.write(
          spark.read.parquet(pqDir("lineitem")), dir.resolve("lineitem").toString, shape.lineitemParts,
          MptWriter.Layout.SortedBy("l_shipdate")))
        if (rep > 0) writeMs += wns / 1e6
        MptWriter.write(spark.read.parquet(pqDir("orders")), dir.resolve("orders").toString, shape.ordersParts,
                        MptWriter.Layout.SortedBy("o_orderdate"))
      })
      if (rep > 0) repSeconds += ns / 1e9
      if (rep > 0) Env.deleteTree(cfg.work.resolve(s"mpt-${rep - 1}"))
      mptDir = Seq("lineitem", "orders").map(t => t -> dir.resolve(t).toString).toMap
    }
    res.put("setup_s", repSeconds.toSeq)
    res.layerMetric("mpt.write_ms", Env.median(writeMs.toSeq))
    res.layerMetric("spark.start_s", sparkStartNs / 1e9)

    val tables = Seq("lineitem", "orders").map { t =>
      val m = MptManifest.read(mptDir(t))
      t -> Map(
        "rows" -> m.partitions.map(_.rowCount).sum,
        "partitions" -> m.partitions.size,
        "mpt_bytes" -> Env.treeBytes(java.nio.file.Paths.get(mptDir(t))),
        "parquet_bytes" -> Env.treeBytes(java.nio.file.Paths.get(pqDir(t))))
    }.toMap
    val rows = tables.values.map(_("rows").asInstanceOf[Long]).sum
    val bytes = tables.values.map(_("mpt_bytes").asInstanceOf[Long]).sum
    res.layerMetric("mpt.stored_bytes_per_row", bytes.toDouble / rows)
    res.put("env", Env.describe(Map("master" -> s"local[$Cores]", "sf" -> shape.sf, "tables" -> tables)))
  }

  private def writeParquet(df: org.apache.spark.sql.DataFrame, dir: Path, name: String, sortCol: String): String = {
    val path = dir.resolve(s"$name.parquet").toString
    df.repartitionByRange(ParquetFiles, col(sortCol)).sortWithinPartitions(sortCol).write.parquet(path)
    path
  }

  // ---- queries -----------------------------------------------------------

  /** Load a table, which reads the manifest, and name it in SQL. */
  private def register(table: String, format: String): Unit = {
    val df =
      if (format == "parquet") spark.read.parquet(pqDir(table))
      else spark.read.format(format).load(mptDir(table))
    df.createOrReplaceTempView(table)
  }

  /** Load the query's tables and run it, timed from the load to the last
    * collected row.
    */
  private def timed(q: Query, format: String): (Array[Row], Long) = Env.timeNs {
    q.tables.foreach(register(_, format))
    spark.sql(q.sql).collect()
  }

  private def countsOf(q: Query): Seq[Counts] = q.tables.map { t =>
    val s = ScanMetrics.forTable(mptDir(t)).get
    Counts(s.totalPartitions, s.afterFilterPruning, s.fullyMatching, s.afterLimitPruning, s.planned)
  }

  /** Run once on `mpt` and check the result and the plan-time counts; the
    * first execution of a query fixes its expected result from Parquet.
    */
  private def execute(q: Query, format: String, exec: Long = -1L): Option[Long] = {
    executions += 1
    try {
      if (!expected.contains(q.id) && !supersets.contains(q.id)) oracle(q)
      val (rows, ns) = Trace.query(exec)(timed(q, format))
      val counts = countsOf(q)
      val ok = q.check match {
        case SameRows => sameRows(canonical(rows), expected(q.id))
        case AnyK(k, _) =>
          val (all, n) = supersets(q.id)
          rows.length == math.min(k, n) && rows.forall(r => all.contains(r.toSeq))
      }
      res.check(ok, s"query ${q.id} (${q.tech}): result differs from Parquet: ${q.sql}")
      val same = pinned.getOrElseUpdate(q.id, counts) == counts
      res.check(same, s"query ${q.id}: counts ${counts.mkString(",")} != pinned ${pinned(q.id).mkString(",")}")
      partsTotal += counts.map(_.total).sum
      partsPlanned += counts.map(_.planned).sum
      q.tables.foreach { t =>
        val s = ScanMetrics.forTable(mptDir(t)).get
        filesOpened += s.filesOpened.get
        runtimeSkipped += s.runtimeSkipped.get
      }
      if (ok && same) Some(ns) else None
    } catch {
      case e: Exception =>
        res.check(ok = false, s"query ${q.id} (${q.tech}) threw $e")
        None
    }
  }

  private def oracle(q: Query): Unit = q.check match {
    case SameRows => expected(q.id) = canonical(timed(q, "parquet")._1)
    case AnyK(_, unlimited) =>
      val all = timed(q.copy(sql = unlimited), "parquet")._1.map(_.toSeq)
      supersets(q.id) = (all.toSet, all.length)
  }

  /** Whole passes over the query list for about `seconds`; failed
    * executions are counted by [[execute]] and leave no sample. Each step
    * runs one query twice, once on `mpt` untraced and once more: traced
    * through [[TracedMptProvider]] if `traced`, else on the Parquet copy as
    * the reference. The pair's order flips from one pass to the next, so
    * that neither side always runs second on warm caches.
    */
  private def measure(seconds: Double, traced: Boolean): (Seq[Sample], Seq[Sample]) = {
    val plain, other = mutable.ArrayBuffer.empty[Sample]
    partsTotal = 0; partsPlanned = 0; filesOpened = 0; runtimeSkipped = 0; executions = 0
    tracedExecutions = 0
    Env.wholePasses(seconds, queries.size) { i =>
      val q = queries(i % queries.size)
      def onMpt(): Unit = execute(q, MptFormat).foreach(n => plain += Sample(q.id, q.tech, n))
      def onOther(): Unit =
        if (traced) {
          val exec = executions
          execQuery(exec) = q.id
          Trace.enabled = true
          execute(q, TracedFormat, exec).foreach(n => other += Sample(q.id, q.tech, n))
          Trace.enabled = false
          tracedExecutions += 1
        } else reference(q).foreach(n => other += Sample(q.id, q.tech, n))
      if ((i / queries.size) % 2 == 0) { onMpt(); onOther() } else { onOther(); onMpt() }
    }
    (plain.toSeq, other.toSeq)
  }

  /** The query on the Parquet copy, timed like [[execute]] times it on `mpt`. */
  private def reference(q: Query): Option[Long] =
    try Some(timed(q, "parquet")._2)
    catch {
      case e: Exception =>
        res.check(ok = false, s"query ${q.id} (${q.tech}) threw $e on the Parquet copy")
        None
    }

  private val execQuery = mutable.Map.empty[Long, Int]

  // ---- traced run --------------------------------------------------------

  /** Each query once untraced and once traced through
    * [[TracedMptProvider]]; then the layer probes, each inside its own spans.
    */
  private def traced(): Unit = {
    val (plain, withSpans) = res.phase("measure")(measure(cfg.seconds, traced = true))
    res.samples("samples", plain)
    res.samples("traced_samples", withSpans)
    val execs = math.max(1L, executions)
    res.layerMetric("mpt.files_opened_per_query", filesOpened.toDouble / execs)
    res.layerMetric("mpt.runtime_skipped_per_query", runtimeSkipped.toDouble / execs)

    val spans = Trace.all
    val li = mptDir("lineitem")
    val byExec = spans.groupBy(_.query)
    def execsOf(tech: String) = byExec.filter { case (e, _) => execQuery.get(e).exists(id => queries(id).tech == tech) }
    val planNames = Set("mpt.provider.inferSchema", "mpt.provider.getTable", "mpt.table.newScanBuilder",
      "mpt.scan_builder.pushFilters", "mpt.scan_builder.pushLimit", "mpt.scan_builder.pushTopN",
      "mpt.scan_builder.pruneColumns", "mpt.scan_builder.build", "mpt.scan.planInputPartitions",
      "mpt.scan.createReaderFactory")
    val planMs = byExec.values.map(ss => ss.filter(s => planNames(s.name)).map(_.ns).sum / 1e6).toSeq
    res.layerMetric("mpt.plan_ms", Env.median(planMs))
    val liParts = MptManifest.read(li).partitions.size
    val push = spans.filter(s => s.name == "mpt.scan_builder.pushFilters" && s.tag == li)
    res.layerMetric("mpt.push_filters_ns_per_partition", Env.median(push.map(_.ns.toDouble / liParts)))
    val topnBuild = execsOf("topk").values.flatMap(_.filter(s => s.name == "mpt.scan_builder.build" && s.tag == li))
    res.layerMetric("mpt.topn_build_ms", Env.median(topnBuild.map(_.ns / 1e6).toSeq))
    val readers = spans.filter(_.name == "mpt.reader.read")
    res.layerMetric("mpt.reader_busy_ms_per_query", readers.map(_.busyNs).sum / 1e6 / math.max(1L, tracedExecutions))
    val bytesPerFile = Env.treeBytes(java.nio.file.Paths.get(li)).toDouble / liParts
    res.layerMetric("mpt.bytes_opened_per_query", filesOpened * bytesPerFile / execs)

    perQueryTable(plain)
    Trace.enabled = true
    res.phase("probes")(probes())
    Trace.enabled = false
  }

  /** Each query's plan-time pruned fraction next to its latency (§8, Fig. 9). */
  private def perQueryTable(plain: Seq[Sample]): Unit = {
    val p50 = plain.groupBy(_.query).map { case (q, s) => q -> Env.median(s.map(_.ns / 1e6)) }
    res.put("per_query", queries.map { q =>
      val c = pinned.getOrElse(q.id, Nil)
      val total = c.map(_.total).sum
      Map("id" -> q.id, "tech" -> q.tech,
          "pruned_frac" -> (if (total == 0) 0.0 else 1.0 - c.map(_.planned).sum.toDouble / total),
          "counts" -> c.map(_.toString).mkString(" "),
          "p50_ms" -> p50.getOrElse(q.id, 0.0))
    })
  }

  private def reps[T](n: Int)(body: => T): Double =
    Env.median((0 until n).map(_ => Env.timeNs(body)._2.toDouble))

  /** Direct calls into `mpt` and `core` with the inputs Spark pushed. */
  private def probes(): Unit = {
    val li = mptDir("lineitem")
    res.layerMetric("mpt.manifest_read_ms",
      reps(15)(Trace.span("mpt.MptManifest.read")(MptManifest.read(li))) / 1e6)
    val manifest = MptManifest.read(li)
    val metas: Seq[PartitionMeta] = Trace.span("meta.manifest_metas")(manifest.metas.toVector)
    res.layerMetric("meta.stats_fold_ms", reps(5)(Trace.span("meta.manifest_metas")(manifest.metas.toVector)) / 1e6)

    // Reader drain without a filter, then with one every row passes, so the
    // difference is the cost of evaluating the filter.
    val parts = manifest.partitions.take(math.max(1, manifest.partitions.size / 4))
    val rows = parts.map(_.rowCount).sum
    def drain(filter: Option[PExpr]): Double = reps(3) {
      val f = new MptReaderFactory(manifest.schema, manifest.schema, filter, None)
      parts.foreach { e =>
        Trace.span("mpt.MptReaderFactory.drain", li) {
          val r = f.createReader(MptInputPartition(li, e.file, e.id, None, -1L))
          while (r.next()) r.get()
          r.close()
        }
      }
    }
    val noFilter = drain(None)
    val allPass = PExpr.Cmp(PExpr.CmpOp.Gte, PExpr.Col("l_shipdate"), PExpr.dateLit(0))
    val withFilter = drain(Some(allPass))
    res.layerMetric("mpt.read_rows_per_s", rows / (noFilter / 1e9))
    res.layerMetric("mpt.row_filter_ns_per_row", (withFilter - noFilter) / rows)

    // Core pruners replayed with the filters Spark pushed for each query.
    val classifyNs = mutable.ArrayBuffer.empty[Double]
    val adaptiveNs = mutable.ArrayBuffer.empty[Double]
    val limitUs = mutable.ArrayBuffer.empty[Double]
    val topkUs = mutable.ArrayBuffer.empty[Double]
    val summarizeUs = mutable.ArrayBuffer.empty[Double]
    val probeNs = mutable.ArrayBuffer.empty[Double]
    var fully = 0L
    var scanSet = 0L
    queries.filter(_.tables.contains("lineitem")).foreach { q =>
      TracedMptProvider.pushed.clear()
      Trace.span("spark.pushed_capture") {
        q.tables.foreach(register(_, TracedFormat))
        spark.sql(q.sql).queryExecution.executedPlan
      }
      val pushed = Option(TracedMptProvider.pushed.get(li))
      val pred = pushed.flatMap { p =>
        val ps = p.filters.flatMap(FilterTranslator.translate)
        if (ps.isEmpty) None else Some(PExpr.and(ps))
      }
      val classified = pred match {
        case Some(p) =>
          classifyNs += reps(5)(Trace.span("core.FilterPruner.classify")(FilterPruner.classify(metas, p))) / metas.size
          adaptiveNs += reps(5)(Trace.span("core.AdaptivePruner.run")(
            new AdaptivePruner(PruningTree.fromPExpr(p)).run(metas))) / metas.size
          FilterPruner.classify(metas, p)
        case None => FilterPruner.noPredicate(metas)
      }
      fully += classified.fullyMatching.size
      scanSet += classified.scanSet.size
      pushed.flatMap(_.limit).foreach { k =>
        limitUs += reps(5)(Trace.span("core.LimitPruner.prune")(
          LimitPruner.prune(classified, k.toLong, shapeSupported = true))) / 1e3
      }
      pushed.flatMap(_.topN).foreach { case (order, k) =>
        val c = order.expression().asInstanceOf[NamedReference].fieldNames()(0)
        val tq = TopKPruner.TopKQuery(c, k, order.direction() == SortDirection.DESCENDING)
        topkUs += reps(5)(Trace.span("core.TopKPruner.upfrontBoundary")(
          TopKPruner.upfrontBoundary(classified.fullyMatching, tq))) / 1e3
      }
      q.buildKeysSql.foreach { sql =>
        register("orders", "parquet")
        val keys = spark.sql(sql).collect().map(r => repro.meta.Scalar.LongV(r.getLong(0)): repro.meta.Scalar)
        summarizeUs += reps(3)(Trace.span("core.JoinPruner.summarize")(JoinPruner.summarize(keys))) / 1e3
        val summary = JoinPruner.summarize(keys)
        probeNs += reps(5)(Trace.span("core.JoinPruner.pruneProbe")(
          JoinPruner.pruneProbe(classified.scanSet, "l_orderkey", summary))) / math.max(1, classified.scanSet.size)
      }
    }
    res.layerMetric("core.classify_ns_per_partition", Env.median(classifyNs.toSeq))
    res.layerMetric("core.adaptive_ns_per_partition", Env.median(adaptiveNs.toSeq))
    res.layerMetric("core.fully_matching_frac", if (scanSet == 0) 0.0 else fully.toDouble / scanSet)
    res.layerMetric("core.limit_prune_us", Env.median(limitUs.toSeq))
    res.layerMetric("core.topk_upfront_us", Env.median(topkUs.toSeq))
    res.layerMetric("core.join_summarize_us", Env.median(summarizeUs.toSeq))
    res.layerMetric("core.join_probe_ns_per_partition", Env.median(probeNs.toSeq))

    // The same queries on the Parquet copy, which the oracle pass warmed
    // up: an unguarded reference.
    Trace.enabled = false
    val ref = queries.map(q => q.tech -> timed(q, "parquet")._2 / 1e6)
    ref.groupBy(_._1).foreach { case (tech, xs) =>
      res.layerMetric(s"ref.parquet_${tech}_p50_ms", Env.median(xs.map(_._2)))
    }
  }
}
