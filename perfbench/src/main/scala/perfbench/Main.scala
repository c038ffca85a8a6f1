package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable

/** Entry point of the benchmark JVM. `run.py` builds and launches it with
  *
  * {{{
  * --workload <mpt_scan|mpt_selective|sim_workload> --seed <n> --seconds <s>
  * --trace <0|1> --work <scratch dir> --out <raw result json>
  * }}}
  *
  * and turns the raw result (latency samples, counts, spans) into metrics.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = opts("workload")
    val cfg = Config(
      seed = opts("seed").toLong,
      seconds = opts("seconds").toDouble,
      trace = opts("trace") == "1",
      work = Paths.get(opts("work")))
    Files.createDirectories(cfg.work)
    val out = Paths.get(opts("out"))
    val res = new Result
    workload match {
      case "mpt_scan" | "mpt_selective" => Dsv2Bench.run(workload, cfg, res)
      case "sim_workload"               => SimBench.run(cfg, res)
      case other                        => throw new IllegalArgumentException(s"unknown workload $other")
    }
    if (cfg.trace) Trace.write(cfg.work.resolve("spans.tsv"))
    res.put("spans_file", if (cfg.trace) cfg.work.resolve("spans.tsv").toString else "")
    Files.write(out, Json.render(res.toMap).getBytes(StandardCharsets.UTF_8))
  }
}

final case class Config(seed: Long, seconds: Double, trace: Boolean, work: Path)

/** One closed-loop latency sample: the query's index in the workload's
  * query list, its pruning technique and its wall time.
  */
final case class Sample(query: Int, tech: String, ns: Long)

/** Everything a run reports, as plain values for [[Json]]. */
final class Result {
  private val fields = mutable.LinkedHashMap.empty[String, Any]
  private val errors = mutable.ArrayBuffer.empty[String]
  private val layer = mutable.LinkedHashMap.empty[String, Double]
  var attempted = 0L
  var failed = 0L

  private val phases = mutable.LinkedHashMap.empty[String, Double]

  def put(key: String, v: Any): Unit = fields(key) = v

  /** Time a phase of the run, for the report. */
  def phase[T](name: String)(body: => T): T = {
    val (r, ns) = Env.timeNs(body)
    phases(name) = phases.getOrElse(name, 0.0) + ns / 1e9
    r
  }

  def layerMetric(name: String, v: Double): Unit = layer(name) = v

  /** Count one checked operation; a mismatch or exception is a failure. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (errors.size < 20) errors += what
    }
  }

  /** Kept as primitive arrays, so that the samples add little to the heap
    * measured at the end of a run, however many a run collects.
    */
  def samples(key: String, s: Seq[Sample]): Unit = put(key, Map(
    "query" -> s.iterator.map(_.query).toArray, "tech" -> s.iterator.map(_.tech).toArray,
    "ns" -> s.iterator.map(_.ns).toArray))

  def toMap: Map[String, Any] = fields.toMap ++ Map(
    "attempted" -> attempted, "failed" -> failed, "errors" -> errors.toSeq, "layer" -> layer.toMap,
    "phases_s" -> phases.toMap)
}

object Env {
  /** Calls `step(0)`, `step(1)`, ... in a closed loop over a list of
    * `passSize` queries and stops at the end of the pass nearest to
    * `seconds`, so that every query of the list weighs the same in the
    * samples.
    */
  def wholePasses(seconds: Double, passSize: Int)(step: Int => Unit): Unit = {
    val start = System.nanoTime()
    var i = 0
    def more: Boolean =
      if (i % passSize != 0) true
      else if (i == 0) seconds > 0
      else {
        val elapsed = (System.nanoTime() - start) / 1e9
        elapsed + elapsed / (i / passSize) / 2 < seconds
      }
    while (more) { step(i); i += 1 }
  }

  def timeNs[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, System.nanoTime() - t0)
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  /** Heap in use after full collections, in MB. Spark's cleaner releases
    * broadcast and shuffle state on its own thread after a collection finds
    * it unreachable, so collect until a collection frees less than 1 MB.
    */
  def heapUsedMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    def collect(): Long = { System.gc(); Thread.sleep(200); mem.getHeapMemoryUsage.getUsed }
    var before = collect()
    var after = collect()
    var n = 2
    while (before - after >= 1000000L && n < 8) { before = after; after = collect(); n += 1 }
    after / 1e6
  }

  def describe(extra: Map[String, Any]): Map[String, Any] = Map(
    "cores" -> Runtime.getRuntime.availableProcessors(),
    "max_heap_mb" -> Runtime.getRuntime.maxMemory() / 1000000L,
    "jdk" -> System.getProperty("java.version"),
    "spark" -> org.apache.spark.SPARK_VERSION,
    "scala" -> scala.util.Properties.versionNumberString) ++ extra

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder()).forEach(x => Files.delete(x))
      finally s.close()
    }

  def treeBytes(p: Path): Long = {
    val s = Files.walk(p)
    try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum()
    finally s.close()
  }
}
