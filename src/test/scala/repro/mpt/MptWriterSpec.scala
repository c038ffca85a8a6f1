package repro.mpt

import java.io.File
import java.nio.file.Files
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerStageSubmitted}
import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.types._
import org.scalacheck.Gen
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.PropHelper.forAllSeeded
import repro.SparkSpec
import repro.meta.{ColumnStats, Scalar}

/** [[MptWriter.write]] runs one Spark task per core, not one per
  * micro-partition, and feeds [[MptDataFile.Writer]] Spark's internal rows.
  * The layouts whose partitioning does not depend on a sample must write
  * exactly what the one-task-per-partition `Row` writer ([[RowMptWriter]])
  * wrote; the range layouts must keep their structure.
  */
class MptWriterSpec extends SparkSpec {
  import AdversarialRows._

  private def tempDir(): String = Files.createTempDirectory("mpt-writer").toFile.getAbsolutePath

  /** Stats with exact double bits: `-0.0 != 0.0`, NaN equals NaN. */
  private def exact(s: ColumnStats): Seq[Any] = {
    def bits(v: Option[Scalar]): Any = v match {
      case Some(Scalar.DoubleV(d)) => ("double", java.lang.Double.doubleToLongBits(d))
      case other                   => other
    }
    Seq(bits(s.min), bits(s.max), s.nullCount)
  }

  /** An entry without its write-specific file name: id, the exchange index
    * the file is named by, row count and exact zone maps.
    */
  private def described(e: MptPartitionEntry): Seq[Any] =
    Seq(e.id, e.file.split('-')(1), e.rowCount, e.stats.map(exact))

  /** A data file decoded column by column into rows of exact values. */
  private def decoded(dir: String, e: MptPartitionEntry, schema: StructType): Seq[Seq[Any]] = {
    val chunks = MptDataFile.read(new File(dir, e.file))
    val cols = schema.fields.indices.map { c =>
      val dt = schema.fields(c).dataType
      val v = chunks.decode(c, dt, null)
      (0 until chunks.rowCount).map { r =>
        if (v.isNullAt(r)) null
        else dt match {
          case LongType               => v.getLong(r)
          case IntegerType | DateType => v.getInt(r)
          case DoubleType             => ("double", java.lang.Double.doubleToLongBits(v.getDouble(r)))
          case StringType             => v.getUTF8String(r).toString
          case BooleanType            => v.getBoolean(r)
          case other                  => fail(s"unexpected type $other")
        }
      }
    }
    (0 until chunks.rowCount).map(r => cols.map(_(r)))
  }

  /** A source row as [[decoded]] returns it. */
  private def expected(r: Row): Seq[Any] = canonical(r).map {
    case ("date", days: Long) => days.toInt
    case v                    => v
  }

  private def partFiles(dir: String): Set[String] =
    new File(dir).list().filter(_.startsWith("part-")).toSet

  private val groups = new AtomicInteger

  /** Run `write` and return the number of tasks of its result stage, the
    * stage whose job `MptWriter.write` collects, as a listener sees it.
    */
  private def resultStageTasks(write: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"mpt-writer-spec-${groups.incrementAndGet()}"
    val submitted = ConcurrentHashMap.newKeySet[Int]()
    val collected = new ConcurrentHashMap[Int, Int]()
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group)
          submitted.add(e.stageInfo.stageId)
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (submitted.contains(e.stageInfo.stageId) && e.stageInfo.name.startsWith("collect at MptWriter"))
          collected.put(e.stageInfo.stageId, e.stageInfo.numTasks)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "MptWriterSpec")
      try write finally sc.clearJobGroup()
      // Listeners hear events after the job has returned.
      eventually(timeout(Span(30, Seconds))) { assert(collected.size == 1) }
      collected.values.iterator.next()
    } finally sc.removeSparkListener(listener)
  }

  /** `n` random adversarial rows from a fixed seed. */
  private def seededRows(n: Int): Seq[Row] =
    table(n).apply(Gen.Parameters.default, org.scalacheck.rng.Seed(n.toLong)).get

  test("a write runs min(n, defaultParallelism) tasks, however many micro-partitions it writes") {
    val df = frame(spark, seededRows(300), 5)
    val cores = spark.sparkContext.defaultParallelism
    for (n <- Seq(1, 3, 100); layout <- Seq(MptWriter.Layout.SortedBy("id"), MptWriter.Layout.Random(5))) {
      val dir = tempDir()
      var m: MptManifest = null
      val tasks = resultStageTasks { m = MptWriter.write(df, dir, n, layout) }
      assert(tasks == math.min(n, cores), s"n = $n, $layout")
      assert(m.partitions.size == n, s"n = $n, $layout")
      assert(m.partitions.map(_.rowCount).sum == 300)
    }
  }

  test("property: AsIs and Random write what the one-task-per-partition Row writer wrote") {
    val gen = for {
      rs <- rows(60); slices <- Gen.choose(1, 7); n <- Gen.choose(1, 9); seed <- Gen.choose(0L, 99L)
      layout <- Gen.oneOf[MptWriter.Layout](MptWriter.Layout.AsIs, MptWriter.Layout.Random(seed))
    } yield (rs, slices, n, layout)
    forAllSeeded(gen, n = 16) { case (rs, slices, n, layout) =>
      val df = frame(spark, rs, slices)
      val (oldDir, newDir) = (tempDir(), tempDir())
      val old = RowMptWriter.write(df, oldDir, n, layout)
      val now = MptWriter.write(df, newDir, n, layout)
      val ctx = s"$layout, n = $n, $slices slices, ${rs.size} rows"
      assert(now.schema == old.schema, ctx)
      assert(now.partitions.map(described) == old.partitions.map(described), ctx)
      now.partitions.zip(old.partitions).foreach { case (a, b) =>
        assert(decoded(newDir, a, now.schema) == decoded(oldDir, b, old.schema), s"$ctx, partition ${a.id}")
      }
      assert(MptManifest.read(newDir).partitions.map(e => (e.file, described(e))) ==
             now.partitions.map(e => (e.file, described(e))), ctx)
    }
  }

  test("property: AsIs and Random write every data file byte for byte as the Row writer does") {
    def date(days: Long) = java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(days))
    // Whatever the generator draws: NULLs in every type, -0.0 and 0.0, NaN
    // and supplementary characters.
    val fixed = Seq(
      Row(1000L, null, null, null, null, null, null, null),
      Row(1001L, Long.MinValue, Int.MaxValue, -0.0, "\uD83D\uDE00", date(-25000), true, null),
      Row(1002L, Long.MaxValue, Int.MinValue, 0.0, "a\uD83D\uDE00", date(47000), false, null),
      Row(1003L, 0L, 0, Double.NaN, "\uFFFF", date(0), null, null))
    val gen = for {
      rs <- rows(40); slices <- Gen.choose(1, 9); n <- Gen.choose(1, 12); seed <- Gen.choose(0L, 99L)
      layout <- Gen.oneOf[MptWriter.Layout](MptWriter.Layout.AsIs, MptWriter.Layout.Random(seed))
    } yield (rs ++ fixed, slices, n, layout)
    var empty = 0
    forAllSeeded(gen, n = 16, seed0 = 17L) { case (rs, slices, n, layout) =>
      val df = frame(spark, rs, slices)
      val (oldDir, newDir) = (tempDir(), tempDir())
      val old = RowMptWriter.write(df, oldDir, n, layout)
      val now = MptWriter.write(df, newDir, n, layout)
      val ctx = s"$layout, n = $n, $slices slices, ${rs.size} rows"
      assert(now.partitions.size == old.partitions.size, ctx)
      now.partitions.zip(old.partitions).foreach { case (a, b) =>
        val (x, y) = (Files.readAllBytes(new File(newDir, a.file).toPath), Files.readAllBytes(new File(oldDir, b.file).toPath))
        assert(x.sameElements(y), s"$ctx, partition ${a.id}: ${x.length} bytes against ${y.length}")
        if (a.rowCount == 0) empty += 1
      }
    }
    assert(empty > 0, "no empty partition was written")
  }

  test("an empty DataFrame writes what the Row writer wrote") {
    val df = frame(spark, Seq.empty, 3)
    for (layout <- Seq(MptWriter.Layout.SortedBy("l"), MptWriter.Layout.Random(1), MptWriter.Layout.AsIs)) {
      val now = MptWriter.write(df, tempDir(), 4, layout)
      val old = RowMptWriter.write(df, tempDir(), 4, layout)
      assert(now.partitions.map(described) == old.partitions.map(described), s"$layout")
    }
  }

  test("property: SortedBy and ClusteredBy keep dense ids, sorted and non-overlapping partitions, every row") {
    val layouts = Seq[MptWriter.Layout](
      MptWriter.Layout.SortedBy("l"), MptWriter.Layout.SortedBy("s"),
      MptWriter.Layout.ClusteredBy("l", jitter = 1e18), MptWriter.Layout.ClusteredBy("i", jitter = 10))
    val gen = for { rs <- rows(80); slices <- Gen.choose(1, 5); n <- Gen.choose(1, 12); layout <- Gen.oneOf(layouts) }
      yield (rs, slices, n, layout)
    forAllSeeded(gen, n = 16) { case (rs, slices, n, layout) =>
      val dir = tempDir()
      val df = frame(spark, rs, slices)
      // Written twice: the second write must leave only its own files.
      MptWriter.write(df, dir, n, layout)
      val m = MptWriter.write(df, dir, n, layout)
      val ctx = s"$layout, n = $n, $slices slices, ${rs.size} rows"
      assert(m.partitions.map(_.id) == m.partitions.indices, ctx)
      m.partitions.foreach(e => assert(e.file.startsWith(f"part-${e.id}%05d-"), ctx))
      assert(partFiles(dir) == m.partitions.map(_.file).toSet, ctx)

      val key = layout match {
        case MptWriter.Layout.SortedBy(c)          => c
        case MptWriter.Layout.ClusteredBy(c, _, _) => c
        case other                                 => fail(s"unexpected $other")
      }
      val k = schema.fieldIndex(key)
      // Spark's ascending order: NULLs first, strings by UTF-8 bytes.
      def leq(a: Any, b: Any): Boolean = (a, b) match {
        case (null, _) => true
        case (_, null) => false
        case (x, y)    => Scalar.compare(scalar(x), scalar(y)).exists(_ <= 0)
      }
      val parts = m.partitions.map(e => decoded(dir, e, m.schema))
      parts.zip(m.partitions).foreach { case (rows, e) =>
        assert(rows.size == e.rowCount, ctx)
        rows.zip(rows.drop(1)).foreach { case (a, b) =>
          assert(leq(a(k), b(k)), s"$ctx, partition ${e.id} unsorted: ${a(k)} before ${b(k)}")
        }
      }
      if (layout.isInstanceOf[MptWriter.Layout.SortedBy]) {
        val ranges = m.partitions.filter(_.rowCount > 0).map(_.stats(k)).filter(_.min.isDefined)
        ranges.zip(ranges.drop(1)).foreach { case (a, b) =>
          assert(Scalar.compare(a.max.get, b.min.get).exists(_ < 0), s"$ctx: $a overlaps $b")
        }
      }
      val id = schema.fieldIndex("id")
      assert(parts.flatten.sortBy(_(id).asInstanceOf[Long]) == rs.map(expected), ctx)
    }
  }

  /** A decoded key value as a [[Scalar]]. */
  private def scalar(v: Any): Scalar = v match {
    case x: Long   => Scalar.LongV(x)
    case x: Int    => Scalar.LongV(x.toLong)
    case x: String => Scalar.StringV(x)
    case other     => fail(s"unexpected key $other")
  }

  /** Both writers over the same rows, one data file each: equal zone maps
    * and byte-identical files.
    */
  private def assertSameAsRowWriter(rs: Seq[Row], schema: StructType, ctx: String): Unit = {
    val toInternal = CatalystTypeConverters.createToCatalystConverter(schema)
    val now = new MptDataFile.Writer(schema)
    val old = new RowMptWriter.Writer(schema)
    rs.foreach { r => now.add(toInternal(r).asInstanceOf[InternalRow]); old.add(r) }
    assert(now.rowCount == old.rowCount, ctx)
    assert(now.stats.map(exact) == old.stats.map(exact), ctx)
    val dir = tempDir()
    val (a, b) = (new File(dir, "now"), new File(dir, "old"))
    now.writeTo(a)
    old.writeTo(b)
    assert(Files.readAllBytes(a.toPath).sameElements(Files.readAllBytes(b.toPath)), ctx)
  }

  test("property: the InternalRow writer folds the same zone maps and writes the same bytes as the Row writer") {
    forAllSeeded(rows(50), n = 200) { rs => assertSameAsRowWriter(rs, schema, s"${rs.size} rows") }
  }

  test("the InternalRow writer's zone maps over NULLs, ±0.0, NaN, long extremes, dates and supplementary strings") {
    val s = StructType(Seq(
      StructField("l", LongType), StructField("i", IntegerType), StructField("d", DoubleType),
      StructField("s", StringType), StructField("dt", DateType), StructField("b", BooleanType)))
    def date(days: Long) = java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(days))
    val rs = Seq(
      Row(Long.MaxValue, Int.MinValue, -0.0, "\uFFFF", date(-25000), true),
      Row(null, null, Double.NaN, "\uD83D\uDE00", null, null),
      Row(Long.MinValue, Int.MaxValue, 0.0, "a", date(47000), false),
      Row(0L, 0, null, null, date(0), true),
      Row(-1L, -1, Double.NegativeInfinity, "\uE000", date(10957), false),
      Row(1L, 1, 0.0, "\uFFFF\uD83D\uDE00", date(-1), null))
    // In code-point order U+E000 and U+FFFF sort below U+1F600, in UTF-16 order above.
    assertSameAsRowWriter(rs, s, "fixed rows")
    val w = new MptDataFile.Writer(s)
    val toInternal = CatalystTypeConverters.createToCatalystConverter(s)
    rs.foreach(r => w.add(toInternal(r).asInstanceOf[InternalRow]))
    assert(w.stats(3) == ColumnStats(Some(Scalar.StringV("a")), Some(Scalar.StringV("\uD83D\uDE00")), 1))
    assert(w.stats(0) == ColumnStats(Some(Scalar.LongV(Long.MinValue)), Some(Scalar.LongV(Long.MaxValue)), 1))
    assert(w.stats(4) == ColumnStats(Some(Scalar.DateV(-25000)), Some(Scalar.DateV(47000)), 1))
    assert(exact(w.stats(2)) == Seq(("double", java.lang.Double.doubleToLongBits(Double.NegativeInfinity)),
                                    ("double", java.lang.Double.doubleToLongBits(Double.NaN)), 1))
    assertSameAsRowWriter(Seq(Row(null, null, null, null, null, null)), s, "all NULL")
    assertSameAsRowWriter(Seq.empty, s, "no rows")
  }
}
