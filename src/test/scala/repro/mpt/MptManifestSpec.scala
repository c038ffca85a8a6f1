package repro.mpt

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.util.QuotingUtils
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types._

import repro.SparkSpec
import repro.meta.{ColumnArrays, ColumnStats, Scalar, TableStats}

/** Table writes replace a table whole, and tables of an older format are
  * refused when they are loaded, not in the middle of a query.
  */
class MptManifestSpec extends SparkSpec {

  private def tmpDir(tag: String): String =
    Files.createTempDirectory(s"mpt-$tag").toFile.getAbsolutePath

  private def readMpt(dir: String) = spark.read.format("repro.mpt.MptTableProvider").load(dir)

  test("rewriting a table leaves only the new manifest and its data files") {
    val dir = tmpDir("rewrite")
    MptWriter.write(spark.range(1000).toDF("id"), dir, 10, MptWriter.Layout.SortedBy("id"))
    // A data file of the older TSV format, left behind in the directory.
    Files.write(new File(dir, "part-00003.tsv").toPath, "1\n".getBytes(StandardCharsets.UTF_8))
    val second = spark.range(300).selectExpr("id * 7 + 5 AS id")
    val m = MptWriter.write(second, dir, 4, MptWriter.Layout.SortedBy("id"))
    assert(m.partitions.size == 4)
    val files = new File(dir).list().toSet
    assert(files == m.partitions.map(_.file).toSet + MptManifest.FileName, files)
    assert(readMpt(dir).collect().map(_.getLong(0)).sorted.toSeq ==
           second.collect().map(_.getLong(0)).sorted.toSeq)
  }

  test("an mpt-v1 table fails at load time and asks for a rewrite") {
    val dir = tmpDir("v1")
    Files.write(new File(dir, MptManifest.FileName).toPath,
      "mpt-v1\ncol\tid\tlong\npart\t0\tpart-00000.tsv\t2\t1\t2\t0\n".getBytes(StandardCharsets.UTF_8))
    Files.write(new File(dir, "part-00000.tsv").toPath, "1\n2\n".getBytes(StandardCharsets.UTF_8))
    val e = intercept[IllegalArgumentException](MptManifest.read(dir))
    assert(e.getMessage.contains("mpt-v1") && e.getMessage.contains("rewrite"), e.getMessage)
    intercept[IllegalArgumentException](readMpt(dir))
  }

  /** A table written now, whose manifest is replaced by a text manifest of
    * format `version` over the same data file, is refused by name at
    * `MptManifest.read` and at `load()`, with a request to rewrite it.
    */
  private def refusesTextManifest(version: String): Unit = {
    val dir = tmpDir(version)
    val m = MptWriter.write(spark.range(10).toDF("id"), dir, 1, MptWriter.Layout.SortedBy("id"))
    val p = m.partitions.head
    Files.write(new File(dir, MptManifest.FileName).toPath,
      s"$version\ncol\tid\tlong\npart\t0\t${p.file}\t10\t0\t9\t0\n".getBytes(StandardCharsets.UTF_8))
    val e = intercept[IllegalArgumentException](MptManifest.read(dir))
    assert(e.getMessage.contains(version) && e.getMessage.contains("rewrite"), e.getMessage)
    intercept[IllegalArgumentException](readMpt(dir))
  }

  test("an mpt-v2 table, whose string zone maps were in UTF-16 order, fails at load time and asks for a rewrite") {
    refusesTextManifest("mpt-v2")
  }

  test("an mpt-v3 table, whose manifest was text, fails at load time and asks for a rewrite") {
    assert(MptManifest.Version == "mpt-v4")
    refusesTextManifest("mpt-v3")
  }

  test("a manifest cut short, in its zone maps or in its schema, is refused at load time") {
    val dir = tmpDir("short")
    MptWriter.write(spark.range(10).toDF("id"), dir, 2, MptWriter.Layout.SortedBy("id"))
    val manifest = new File(dir, MptManifest.FileName).toPath
    val whole = Files.readAllBytes(manifest)
    for (cut <- Seq(whole.dropRight(8), whole.take(MptManifest.Version.length + 7))) {
      Files.write(manifest, cut)
      val e = intercept[IllegalArgumentException](MptManifest.read(dir))
      assert(e.getMessage.contains(MptManifest.FileName), e.getMessage)
    }
  }

  /** Stats with exact double bits: `-0.0 != 0.0`, NaN equals NaN. */
  private def exact(s: ColumnStats): Seq[Any] = {
    def bits(v: Option[Scalar]): Any = v match {
      case Some(Scalar.DoubleV(d)) => ("double", java.lang.Double.doubleToLongBits(d))
      case other                   => other
    }
    Seq(bits(s.min), bits(s.max), s.nullCount)
  }

  test("column names with separators, escapes, dots and supplementary characters round trip") {
    val dir = tmpDir("names")
    val names = Seq("id", "tab\there", "new\nline", "back\\slash", "\\N", "dot.ted", "sup\uD83D\uDE00", "\r")
    val schema = StructType(names.zip(Seq(LongType, IntegerType, DoubleType, StringType, DateType,
                                          BooleanType, LongType, StringType)).map { case (n, t) => StructField(n, t) })
    def date(d: Int) = java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(d.toLong))
    val rows = Seq(
      Row(0L, 3, -0.0, "\\N", date(-3), true, null, null),
      Row(1L, null, Double.NaN, "a\tb\nc\\d", date(10958), false, null, null),
      Row(2L, Int.MinValue, 0.0, "\uD83D\uDE00", null, null, null, null),
      Row(3L, Int.MaxValue, Double.NegativeInfinity, "", date(0), true, null, null))
    // Four rows over eight slices: AsIs keeps the four empty partitions.
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
    val m = MptWriter.write(df, dir, 8, MptWriter.Layout.AsIs)
    assert(m.partitions.size == 8 && m.partitions.count(_.rowCount == 0) == 4)
    val header = Files.readAllBytes(new File(dir, MptManifest.FileName).toPath).take(7)
    assert(new String(header, StandardCharsets.UTF_8) == s"${MptManifest.Version}\n")

    val read = MptManifest.read(dir)
    assert(read.schema == m.schema && read.schema.fieldNames.toSeq == names)
    assert(read.partitions.map(e => (e.id, e.file, e.rowCount, e.stats.map(exact))) ==
           m.partitions.map(e => (e.id, e.file, e.rowCount, e.stats.map(exact))))

    import AdversarialRows.canonical
    def rowsOf(d: DataFrame) = d.collect().map(canonical).sortBy(_.head.asInstanceOf[Long]).toSeq
    names.foreach { n =>
      val c = col(QuotingUtils.quoteIdentifier(n))
      val first = rows.map(_.get(names.indexOf(n))).find(_ != null)
      val filters = Seq(c.isNull, c.isNotNull) ++ first.map(v => c === lit(v)) ++ first.map(v => c >= lit(v))
      filters.foreach { f =>
        assert(rowsOf(readMpt(dir).filter(f)) == rowsOf(df.filter(f)), s"column ${n.map(_.toInt)}: $f")
      }
    }
  }

  /** A column's arrays: its kind, and per partition its state, null count
    * and, where ranged, its bounds with exact double bits.
    */
  private def described(a: ColumnArrays): Seq[Any] = {
    val kind = a match {
      case l: ColumnArrays.Longs => s"Longs(dates = ${l.dates})"
      case other                 => other.getClass.getSimpleName
    }
    kind +: a.state.indices.map { i =>
      val range =
        if (a.state(i) != ColumnArrays.Ranged) Nil
        else exact(ColumnStats(Some(a.bound(i, max = false)), Some(a.bound(i, max = true)), 0)).take(2)
      (a.state(i), a.nullCount(i), range)
    }
  }

  test("the manifest decodes into the zone-map arrays its records would give") {
    val dir = tmpDir("arrays")
    val schema = StructType(Seq("l" -> LongType, "i" -> IntegerType, "d" -> DoubleType, "s" -> StringType,
                                "dt" -> DateType, "b" -> BooleanType, "n" -> LongType)
      .map { case (c, t) => StructField(c, t) })
    def date(d: Int) = java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(d.toLong))
    // One micro-partition per group, two of them empty; "n" is NULL throughout.
    val groups = Seq(
      Seq(Row(1L, 3, -0.0, "b", date(5), true, null), Row(2L, null, 0.0, "a", date(-1), false, null)),
      Seq(Row(3L, Int.MinValue, Double.NaN, null, null, null, null),
          Row(Long.MaxValue, Int.MaxValue, 1.5, "\uD83D\uDE00", date(10958), true, null)),
      Seq.empty,
      Seq(Row(Long.MinValue, null, null, null, null, null, null)),
      Seq.empty)
    val df = spark.createDataFrame(spark.sparkContext.parallelize(groups, groups.size).flatMap(identity), schema)
    val m = MptWriter.write(df, dir, groups.size, MptWriter.Layout.AsIs)
    assert(m.partitions.map(_.rowCount) == Vector(2L, 2L, 0L, 1L, 0L))

    val read = MptManifest.read(dir)
    assert(read.partitions.map(e => (e.id, e.file, e.rowCount, e.stats.map(exact))) ==
           m.partitions.map(e => (e.id, e.file, e.rowCount, e.stats.map(exact))))
    val fromRecords = TableStats.of(read.metas.toIndexedSeq)
    schema.fieldNames.foreach { c =>
      assert(described(read.stats.column(c)) == described(fromRecords.column(c)), c)
      assert(described(read.stats.column(c)) == described(m.stats.column(c)), c)
    }
    assert(schema.fieldNames.toSeq.map(c => described(read.stats.column(c)).head) ==
           Seq("Longs(dates = false)", "Longs(dates = false)", "Doubles", "Strings", "Longs(dates = true)",
               "Bools", "Scalars"))
    read.stats.column("d") match {
      case d: ColumnArrays.Doubles =>
        assert(java.lang.Double.doubleToRawLongBits(d.min(0)) == java.lang.Double.doubleToRawLongBits(-0.0))
        assert(d.min(1) == 1.5 && d.max(1).isNaN)
      case other => fail(s"expected doubles, got $other")
    }
    assert(read.stats.column("n").state.toSeq == Seq.fill(5)(ColumnArrays.NoRange))
    assert(read.stats.column("i").nullCount.toSeq == Seq(1L, 0L, 0L, 1L, 0L))
  }
}
