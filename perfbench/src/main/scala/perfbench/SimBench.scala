package perfbench

import scala.collection.mutable

import repro.core._
import repro.meta.Scalar
import repro.sim.{MemTable, QuerySpec, SimExecutor}
import repro.sim.SimExecutor.{QueryReport, SimConfig}
import repro.workload.{TableGen, WorkloadGen, WorkloadStats}
import repro.workload.WorkloadGen.Kind

/** `sim_workload`: the calibrated 20 000-query workload of
  * `Experiments.runWorkload` through `SimExecutor.execute` in metadata-only
  * mode, on one thread, without Spark or IO. It isolates the pruning core and
  * the simulator.
  */
object SimBench {
  val NTables = 60
  val NQueries = 20000
  /** The workload is the calibrated one of `Experiments.runWorkload`, whatever
    * the run's seed: the catalog (1308 partitions) from seed 42 and the
    * 20 000 queries from seed 43. Its few large tables and heaviest queries
    * set most of its cost, so a catalog or query list drawn per seed would
    * change the workload itself. The run's seed sets the order in which the
    * client sends the queries in the measured passes and which of them the
    * brute-force oracle checks.
    */
  val WorkloadSeed = 42L
  /** Set-up runs once to warm up, untimed, then `SetupReps` timed times. */
  private val SetupReps = 3
  /** [[Kernel]] runs once after every `KernelStride` measured queries. */
  private val KernelStride = 500
  /** Every `OracleStride`-th query, from an offset the seed sets, is checked
    * against a brute-force scan.
    */
  private val OracleStride = 100
  private val Config = SimConfig(metadataOnly = true)

  def tech(q: WorkloadGen.WorkloadQuery): String = q.kind match {
    case Kind.Plain if q.spec.pred.isEmpty => "scan"
    case Kind.Plain                        => "filter"
    case Kind.Join                         => "join"
    case Kind.LimitNoPred | Kind.LimitPred => "limit"
    case _                                 => "topk"
  }

  /** The fields of a report that must repeat exactly on every execution. */
  private def pin(r: QueryReport): (Int, Int, Long, Long) =
    (r.partitionsEligible, r.partitionsScanned, r.rowsScanned, r.resultCount)

  def run(cfg: Config, res: Result): Unit = {
    res.put("workload", "sim_workload")
    res.put("seed", cfg.seed)
    Trace.enabled = cfg.trace

    // ---- set-up: build the catalog, generate the queries, fold the stats.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val catalogMs = mutable.ArrayBuffer.empty[Double]
    val generateMs = mutable.ArrayBuffer.empty[Double]
    val foldMs = mutable.ArrayBuffer.empty[Double]
    var tables = Vector.empty[MemTable]
    var queries = Vector.empty[WorkloadGen.WorkloadQuery]
    (0 to SetupReps).foreach { rep => res.phase("setup") {
      tables = Vector.empty; queries = Vector.empty
      val t0 = System.nanoTime()
      val (t, catNs) = Env.timeNs(Trace.span("workload.TableGen.catalog")(TableGen.catalog(NTables, WorkloadSeed)))
      val (q, genNs) = Env.timeNs(Trace.span("workload.WorkloadGen.generate")(
        WorkloadGen.generate(t, NQueries, WorkloadSeed + 1)))
      // MemTable.metas folds each partition's stats lazily on first use.
      val (_, foldNs) = Env.timeNs(Trace.span("meta.MemTable.metas")(t.foreach(_.metas)))
      if (rep > 0) {
        setupS += (System.nanoTime() - t0) / 1e9
        catalogMs += catNs / 1e6; generateMs += genNs / 1e6; foldMs += foldNs / 1e6
      }
      tables = t; queries = q
    }}
    // Warm-up runs the queries in the generated order, so that every run's
    // JIT compiler profiles the same sequence; the measured passes run them
    // in the seed's order.
    val order = new scala.util.Random(cfg.seed).shuffle(queries.indices.toVector)
    Trace.enabled = false
    res.put("setup_s", setupS.toSeq)
    res.layerMetric("workload.catalog_build_ms", Env.median(catalogMs.toSeq))
    res.layerMetric("workload.generate_ms", Env.median(generateMs.toSeq))
    res.layerMetric("meta.stats_fold_ms", Env.median(foldMs.toSeq))
    val catalog = tables.map(t => t.name -> t).toMap
    // Compact the surviving repetition's objects, so that every run measures
    // the same heap layout rather than whatever the set-up left behind.
    res.phase("gc")(System.gc())
    res.put("env", Env.describe(Map(
      "tables" -> tables.size,
      "partitions" -> tables.map(_.numPartitions).sum,
      "rows" -> tables.map(_.totalRows).sum,
      "queries" -> queries.size)))

    // ---- warm-up: the first pass pins every query's report, the second
    // checks it and gives the pruned fraction.
    val pinned = res.phase("warmup")(queries.map(q => pin(SimExecutor.execute(catalog, q.spec, Config))))
    val firstPass = res.phase("warmup")(queries.map(q => SimExecutor.execute(catalog, q.spec, Config)))
    firstPass.indices.foreach { i =>
      res.check(pin(firstPass(i)) == pinned(i), s"query $i: report ${pin(firstPass(i))} != pinned ${pinned(i)}")
    }
    res.phase("warmup")((0 until 50).foreach(_ => Kernel.run()))
    res.put("pruned_frac", WorkloadStats.overallPartitionRatio(firstPass))
    res.layerMetric("sim.rows_scanned_per_query", firstPass.map(_.rowsScanned.toDouble).sum / firstPass.size)

    /** Whole passes over the queries for about `seconds`: the list's heavy
      * queries are not spread evenly, so a partial pass would bias the
      * sample. With `alternate`, every other execution is traced, so that
      * both halves see the same warm-up. [[Kernel]] runs between blocks of
      * queries, as the reference for the machine's speed.
      */
    def measure(seconds: Double, alternate: Boolean): (Seq[Sample], Seq[Sample], Seq[Sample]) = {
      val plain, traced, ref = mutable.ArrayBuffer.empty[Sample]
      Env.wholePasses(seconds, queries.size) { i =>
        val qi = order(i % queries.size)
        if (i % KernelStride == 0) ref += Sample(-1, "ref", Env.timeNs(Kernel.run())._2)
        val q = queries(qi)
        val tracedNow = alternate && (i + i / queries.size) % 2 == 1
        try {
          Trace.enabled = tracedNow
          val t0 = System.nanoTime()
          val r = Trace.query(i.toLong, "sim.SimExecutor.execute")(SimExecutor.execute(catalog, q.spec, Config))
          val ns = System.nanoTime() - t0
          Trace.enabled = false
          val ok = pin(r) == pinned(qi)
          res.check(ok, s"query $qi: report ${pin(r)} != pinned ${pinned(qi)}")
          if (ok) (if (tracedNow) traced else plain) += Sample(qi, tech(q), ns)
        } catch { case e: Exception => res.check(ok = false, s"query $qi threw $e") }
      }
      (plain.toSeq, traced.toSeq, ref.toSeq)
    }

    if (!cfg.trace) {
      val (plain, _, ref) = res.phase("measure")(measure(cfg.seconds, alternate = false))
      res.samples("samples", plain)
      res.samples("ref_samples", ref)
    } else {
      val (plain, traced, _) = res.phase("measure")(measure(cfg.seconds, alternate = true))
      res.samples("samples", plain)
      res.samples("traced_samples", traced)
      traced.groupBy(s => queries(s.query).kind).foreach { case (k, ss) =>
        res.layerMetric(s"sim.execute_us.$k", Env.median(ss.map(_.ns / 1e3)))
      }
      Trace.enabled = true
      res.phase("probes")(probes(catalog, queries, res))
      Trace.enabled = false
    }
    // ---- result oracle on a sample, after the measured passes, whose code
    // paths it would otherwise shape differently for each seed.
    val firstChecked = math.floorMod(cfg.seed, OracleStride.toLong).toInt
    res.phase("oracle")((firstChecked until queries.size by OracleStride).foreach { i =>
      val spec = queries(i).spec
      val msg = s"query $i (${queries(i).kind}): simulator result differs from a brute-force scan"
      try res.check(Oracle.agrees(catalog, spec), msg)
      catch { case e: Exception => res.check(ok = false, s"$msg: $e") }
    })

    res.put("heap_used_mb", res.phase("heap")(Env.heapUsedMb()))
  }

  /** A fixed piece of work in the harness's own code, with no call into the
    * repository: sort boxed longs and probe a hash map with them, a few
    * milliseconds of the allocation, pointer chasing and branching the
    * simulator does. Its time tracks the machine's speed at the moment it
    * runs, so that the query time divided by it does not move with the
    * host's load.
    */
  object Kernel {
    private val input: Array[java.lang.Long] = {
      val r = new scala.util.Random(7L)
      Array.fill(1 << 14)(java.lang.Long.valueOf(r.nextLong()))
    }
    @volatile private var sink = 0L

    def run(): Unit = {
      val a = input.clone()
      java.util.Arrays.sort(a.asInstanceOf[Array[AnyRef]])
      val m = new java.util.HashMap[java.lang.Long, java.lang.Long](a.length * 2)
      a.indices.foreach(i => m.put(a(i), java.lang.Long.valueOf(i.toLong)))
      var s = 0L
      input.foreach(x => s += m.get(x))
      sink = s
    }
  }

  private def reps[T](n: Int)(body: => T): Double =
    Env.median((0 until n).map(_ => Env.timeNs(body)._2.toDouble))

  /** The core pruners called directly with each query's inputs, for a
    * fixed prefix of the query list.
    */
  private def probes(catalog: Map[String, MemTable], queries: Vector[WorkloadGen.WorkloadQuery],
                     res: Result): Unit = {
    val classifyNs, adaptiveNs, limitUs, topkUs, upfrontUs, summarizeUs, probeNs =
      mutable.ArrayBuffer.empty[Double]
    var fully = 0L
    var scanSet = 0L
    queries.take(4000).foreach { wq =>
      val q = wq.spec
      val probe = catalog(q.table)
      val metas = probe.metas
      val filtered = FilterPruner.classifyOpt(metas, q.pred)
      q.pred.foreach { p =>
        classifyNs += reps(3)(Trace.span("core.FilterPruner.classify")(FilterPruner.classify(metas, p))) / metas.size
        adaptiveNs += reps(3)(Trace.span("core.AdaptivePruner.run")(
          new AdaptivePruner(PruningTree.fromPExpr(p)).run(metas))) / metas.size
        fully += filtered.fullyMatching.size
        scanSet += filtered.scanSet.size
      }
      if (q.isLimitOnly)
        limitUs += reps(3)(Trace.span("core.LimitPruner.prune")(
          LimitPruner.prune(filtered, q.limit.get, q.limitShapeSupported))) / 1e3
      if (q.isTopK && q.topKSupported && q.groupBy.isEmpty && q.join.isEmpty) {
        val ob = q.orderBy.get
        val tq = TopKPruner.TopKQuery(ob.col, q.limit.get.toInt, ob.desc, q.pred)
        val data = filtered.scanSet.map(m => probe.partition(m.id))
        topkUs += reps(3)(Trace.span("core.TopKPruner.run")(TopKPruner.run(data, filtered, tq))) / 1e3
        upfrontUs += reps(3)(Trace.span("core.TopKPruner.upfrontBoundary")(
          TopKPruner.upfrontBoundary(filtered.fullyMatching, tq))) / 1e3
      }
      q.join.filterNot(_.leftOuterProbeSide).foreach { j =>
        val keys = Oracle.buildKeys(catalog(j.buildTable), j)
        summarizeUs += reps(3)(Trace.span("core.JoinPruner.summarize")(JoinPruner.summarize(keys))) / 1e3
        val summary = JoinPruner.summarize(keys)
        probeNs += reps(3)(Trace.span("core.JoinPruner.pruneProbe")(
          JoinPruner.pruneProbe(filtered.scanSet, j.probeKey, summary))) / math.max(1, filtered.scanSet.size)
      }
    }
    res.layerMetric("core.classify_ns_per_partition", Env.median(classifyNs.toSeq))
    res.layerMetric("core.adaptive_ns_per_partition", Env.median(adaptiveNs.toSeq))
    res.layerMetric("core.fully_matching_frac", if (scanSet == 0) 0.0 else fully.toDouble / scanSet)
    res.layerMetric("core.limit_prune_us", Env.median(limitUs.toSeq))
    res.layerMetric("core.topk_run_us", Env.median(topkUs.toSeq))
    res.layerMetric("core.topk_upfront_us", Env.median(upfrontUs.toSeq))
    res.layerMetric("core.join_summarize_us", Env.median(summarizeUs.toSeq))
    res.layerMetric("core.join_probe_ns_per_partition", Env.median(probeNs.toSeq))
  }

  /** A brute-force evaluation of a query over every row of its tables,
    * with no pruning, written against the public row and metadata APIs.
    * It models the simulator's query semantics: a join keeps probe rows whose
    * key occurs among the build rows that pass the build predicate.
    */
  object Oracle {
    def buildKeys(build: MemTable, j: repro.sim.JoinSpec): Set[Scalar] =
      (for {
        p <- build.partitions.iterator
        r <- (0 until p.rowCount).iterator
        row = p.lookupAt(r)
        if j.buildPred.forall(PExprEval.passes(_, row))
        k <- row(j.buildKey)
      } yield k).toSet

    private def better(desc: Boolean)(a: Option[Scalar], b: Option[Scalar]): Boolean = (a, b) match {
      case (Some(x), Some(y)) => Scalar.compare(x, y).exists(c => if (desc) c > 0 else c < 0)
      case (Some(_), None)    => true
      case _                  => false
    }

    def agrees(catalog: Map[String, MemTable], q: QuerySpec): Boolean = {
      val probe = catalog(q.table)
      val keys = q.join.filterNot(_.leftOuterProbeSide).map(j => buildKeys(catalog(j.buildTable), j))
      def joins(row: PExprEval.RowLookup): Boolean = (keys, q.join) match {
        case (Some(ks), Some(j)) => row(j.probeKey).exists(ks.contains)
        case _                   => true
      }
      val qualifying: Vector[IndexedSeq[Scalar]] = (for {
        p <- probe.partitions.iterator
        r <- (0 until p.rowCount).iterator
        row = p.lookupAt(r)
        if q.pred.forall(PExprEval.passes(_, row)) && joins(row)
      } yield p.data(r).toIndexedSeq).toVector
      val rep = SimExecutor.execute(catalog, q, SimConfig(materialize = true))
      val col = probe.schema.zipWithIndex.toMap
      def qualifies(row: IndexedSeq[Scalar]): Boolean = {
        val l: PExprEval.RowLookup = n => col.get(n).flatMap(i => Option(row(i)))
        q.pred.forall(PExprEval.passes(_, l))
      }
      if (q.isTopK && q.topKSupported && q.groupBy.isEmpty) {
        val ob = q.orderBy.get
        val i = col(ob.col)
        val want = qualifying.map(r => Option(r(i))).sortWith(better(ob.desc)).take(q.limit.get.toInt)
        rep.resultRows.map(r => Option(r(i))) == want
      } else if (q.isTopK && q.topKSupported) {
        val ob = q.orderBy.get
        val g = col(q.groupBy.get)
        val counts = qualifying.flatMap(r => Option(r(g))).groupBy(identity).view.mapValues(_.size.toLong).toMap
        val top = counts.keys.toVector.map(Option(_)).sortWith(better(ob.desc)).take(q.limit.get.toInt).flatten
        rep.resultRows == top.map(k => IndexedSeq(k, Scalar.LongV(counts(k))))
      } else if (q.isLimitOnly) {
        rep.resultCount == math.min(q.limit.get, qualifying.size.toLong) && rep.resultRows.forall(qualifies)
      } else {
        val n = q.limit.map(k => math.min(k, qualifying.size.toLong)).getOrElse(qualifying.size.toLong)
        def key(r: IndexedSeq[Scalar]) = r.mkString("\u0001")
        rep.resultCount == n &&
          (q.limit.isDefined || rep.resultRows.map(key).sorted == qualifying.map(key).sorted)
      }
    }
  }
}
