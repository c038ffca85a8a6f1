package repro.mpt

import java.io.File
import java.nio.file.Files

import scala.collection.mutable

import org.apache.spark.SparkException
import org.apache.spark.sql.connector.read.InputPartition
import org.apache.spark.sql.sources
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.PropHelper.forAllSeeded
import repro.SparkSpec
import repro.core.{BoundaryHeap, FilterPruner, FilterTranslator, PExpr}
import repro.meta.Scalar
import repro.meta.Scalar.LongV

/** A scan runs as one task per core, each reading its micro-partitions one
  * after another: planning deals them out in scan order, the reader checks
  * the top-k boundary before each one and skips the row filter on
  * fully-matching ones, and planning refuses a table with a missing file.
  */
class MptPackingSpec extends SparkSpec {
  import AdversarialRows._

  private def tmpDir(tag: String): String =
    Files.createTempDirectory(s"mpt-$tag").toFile.getAbsolutePath

  private def readMpt(dir: String) = spark.read.format("repro.mpt.MptTableProvider").load(dir)

  /** Ids (column 0) of every row a reader emits, in order. */
  private def ids(f: MptReaderFactory, p: InputPartition): Seq[Long] = {
    val r = f.createColumnarReader(p)
    val out = mutable.ArrayBuffer.empty[Long]
    while (r.next()) {
      val b = r.get()
      (0 until b.numRows).foreach(i => out += b.column(0).getLong(i))
    }
    r.close()
    out.toSeq
  }

  test("property: packing deals every micro-partition once, in scan order, to min(n, tasks) tasks") {
    val gen = for { n <- Gen.choose(0, 200); tasks <- Gen.choose(1, 16) } yield (n, tasks)
    forAllSeeded(gen, n = 300) { case (n, tasks) =>
      // Scan order is not id order, as under top-k (§5.3).
      val order = new scala.util.Random(n * 31L + tasks).shuffle((0 until n).toVector)
      val parts = order.map(id => MptInputPartition("d", s"f$id", id, None, 1L))
      val packed = MptScan.pack(parts, tasks)
      assert(packed.size == math.min(n, tasks), s"n=$n tasks=$tasks")
      val dealt = packed.flatMap(_.parts.map(_.partId))
      assert(dealt.sorted == order.sorted, s"n=$n tasks=$tasks")
      // Every task starts with one of the first micro-partitions of the scan.
      assert(packed.map(_.parts.head) == parts.take(packed.size))
      val position = order.zipWithIndex.toMap
      packed.foreach { t =>
        val at = t.parts.map(p => position(p.partId))
        assert(at == at.sorted, s"task is not a subsequence of the scan order: $at")
      }
    }
  }

  test("a top-k scan read as a single task opens one file and skips the rest at runtime (§5.2)") {
    val dir = tmpDir("onetask")
    val m = MptWriter.write(spark.range(1000).toDF("id"), dir, 10, MptWriter.Layout.SortedBy("id"))
    val idx = m.schema.fieldIndex("id")
    // §5.3 order: highest maximum first. No upfront boundary, so only the
    // runtime boundary can skip.
    val stats = new ScanMetrics.Stats(dir, new BoundaryHeap(5, desc = true, null))
    val scanId = ScanMetrics.register(stats)
    val parts = m.partitions.sortBy(e => -e.stats(idx).max.get.asInstanceOf[LongV].v)
      .map(e => MptInputPartition(dir, e.file, e.id, e.stats(idx).max, scanId))
    val factory = new MptReaderFactory(m.schema, m.schema, None, Some(TopKPlan("id", desc = true, 5)))
    val got = ids(factory, MptTaskPartition(parts))
    assert(got.sorted.takeRight(5) == (995L to 999L))
    assert(stats.filesOpened.get == 1, s"$stats")
    assert(stats.runtimeSkipped.get == parts.size - 1, s"$stats")
  }

  test("LIMIT through packed tasks returns correct rows and stops reading once Spark has k") {
    val dir = tmpDir("packedlimit")
    // 100 micro-partitions of 10 rows; each holds 4 rows with v < 4, so none
    // is fully matching and LIMIT pruning declines.
    val df = spark.range(1000).selectExpr("id", "id % 10 AS v")
    MptWriter.write(df, dir, 100, MptWriter.Layout.SortedBy("id"))
    val k = 10
    val rows = readMpt(dir).filter("v < 4").limit(k).collect()
    val stats = ScanMetrics.forTable(dir).get
    assert(stats.afterLimitPruning == 100 && stats.planned == 100, s"$stats")
    assert(rows.length == k)
    assert(rows.forall(r => r.getLong(1) < 4 && r.getLong(1) == r.getLong(0) % 10))
    assert(rows.map(_.getLong(0)).distinct.length == k)
    // Spark's executeTake runs the first task alone; when it holds the three
    // micro-partitions that give k rows, its reader opens no more.
    val perTask = (100 + spark.sparkContext.defaultParallelism - 1) / spark.sparkContext.defaultParallelism
    if (perTask >= 3) assert(stats.filesOpened.get == 3, s"$stats")
    else assert(stats.filesOpened.get < stats.planned, s"$stats")
  }

  test("explain shows the micro-partitions, tasks and fully-matching count") {
    val dir = tmpDir("explain")
    val m = MptWriter.write(spark.range(1000).toDF("id"), dir, 12, MptWriter.Layout.SortedBy("id"))
    val plan = readMpt(dir).filter("id >= 100").queryExecution
      .explainString(org.apache.spark.sql.execution.SimpleMode)
    def bound(v: Option[Scalar]): Long = v.get.asInstanceOf[LongV].v
    val scanned = m.partitions.count(e => bound(e.stats(0).max) >= 100)
    val fully = m.partitions.count(e => bound(e.stats(0).min) >= 100)
    val tasks = math.min(scanned, spark.sparkContext.defaultParallelism)
    assert(fully > 0 && fully < scanned)
    assert(plan.contains(s"$scanned micro-partitions in $tasks tasks, $fully fully matching"), plan)
  }

  test("a missing data file fails the query on the driver, naming the table and the file") {
    val dir = tmpDir("missing")
    val m = MptWriter.write(spark.range(100).toDF("id"), dir, 4, MptWriter.Layout.SortedBy("id"))
    val gone = m.partitions(2).file
    assert(new File(dir, gone).delete())
    val e = intercept[Exception](readMpt(dir).collect())
    assert(!e.isInstanceOf[SparkException], s"failed in a task: $e")
    assert(e.isInstanceOf[java.io.FileNotFoundException], e.toString)
    assert(e.getMessage.contains(dir) && e.getMessage.contains(gone), e.getMessage)
  }

  // ---- the §4.2 certificate in the reader ----------------------------------

  private lazy val (certDir, certified) = {
    val d = tmpDir("certified")
    val rs = table(300).apply(Gen.Parameters.default, Seed(8)).get
    (d, MptWriter.write(frame(spark, rs, 3), d, 30, MptWriter.Layout.SortedBy("id")))
  }

  private val leaf: Gen[sources.Filter] = {
    val cols: Seq[(String, Gen[Any])] = Seq(
      "id" -> Gen.choose(0L, 300L), "l" -> longs, "i" -> ints, "d" -> doubles, "s" -> strings,
      "dt" -> dates.map(d => java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(d.toLong))),
      "b" -> booleans, "z" -> longs)
    Gen.oneOf(cols).flatMap { case (c, lit) =>
      Gen.oneOf(
        lit.map(sources.GreaterThan(c, _)), lit.map(sources.GreaterThanOrEqual(c, _)),
        lit.map(sources.LessThan(c, _)), lit.map(sources.LessThanOrEqual(c, _)),
        lit.map(sources.EqualTo(c, _)), Gen.listOfN(3, lit).map(vs => sources.In(c, vs.toArray)),
        Gen.const(sources.IsNull(c)), Gen.const(sources.IsNotNull(c)),
        strings.map(sources.StringStartsWith("s", _)))
    }
  }

  private val filter: Gen[sources.Filter] = Gen.frequency(
    3 -> leaf,
    1 -> Gen.zip(leaf, leaf).map { case (a, b) => sources.And(a, b) },
    1 -> Gen.zip(leaf, leaf).map { case (a, b) => sources.Or(a, b) },
    1 -> leaf.map(sources.Not(_)))

  test("property: a fully-matching micro-partition emits the same rows without the row filter") {
    var checked = 0
    forAllSeeded(filter, n = 300) { f =>
      val pred: PExpr = FilterTranslator.translate(f).getOrElse(fail(s"not translated: $f"))
      val fully = FilterPruner.classify(certified.stats, pred).fullyMatching.map(_.id).toSet
      val factory = new MptReaderFactory(certified.schema, certified.schema, Some(pred), None)
      certified.partitions.filter(e => fully.contains(e.id)).foreach { e =>
        val filtered = ids(factory, MptInputPartition(certDir, e.file, e.id, None, -1L))
        val unfiltered = ids(factory, MptInputPartition(certDir, e.file, e.id, None, -1L, fullyMatching = true))
        assert(unfiltered == filtered, s"filter $f, partition ${e.id}")
        checked += 1
      }
    }
    assert(checked >= 300, s"only $checked certified partitions were read")
  }
}
