package repro.mpt

import java.nio.file.Files

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types._
import org.scalacheck.Gen

import repro.PropHelper.forAllSeeded
import repro.SparkSpec
import repro.meta.{ColumnStats, Scalar}

/** Property: any table written through [[MptWriter]], with every layout,
  * reads back through DataSource V2 as exactly the source rows, and each
  * partition's manifest stats are the fold of its stored values.
  */
class MptRoundTripSpec extends SparkSpec {
  import AdversarialRows._

  private val layouts: Seq[MptWriter.Layout] = Seq(
    MptWriter.Layout.SortedBy("d"),
    MptWriter.Layout.ClusteredBy("l", jitter = 1e18),
    MptWriter.Layout.Random(3),
    MptWriter.Layout.AsIs)

  /** Stats with exact double bits: `-0.0 != 0.0`, NaN equals NaN. */
  private def exact(s: ColumnStats): Seq[Any] = {
    def bits(v: Option[Scalar]): Any = v match {
      case Some(Scalar.DoubleV(d)) => ("double", java.lang.Double.doubleToLongBits(d))
      case other                   => other
    }
    Seq(bits(s.min), bits(s.max), s.nullCount)
  }

  /** A partition's stored values, as a row-at-a-time reader returns them. */
  private def storedValues(dir: String, e: MptPartitionEntry, schema: StructType): Seq[Array[Any]] = {
    val f = new MptReaderFactory(schema, schema, None, None)
    val r = f.createReader(MptInputPartition(dir, e.file, e.id, None, -1L))
    val out = Seq.newBuilder[Array[Any]]
    while (r.next()) {
      val row: InternalRow = r.get()
      out += schema.fields.indices.map { i =>
        if (row.isNullAt(i)) null
        else schema.fields(i).dataType match {
          case LongType    => row.getLong(i)
          case IntegerType => row.getInt(i)
          case DoubleType  => row.getDouble(i)
          case StringType  => row.getUTF8String(i).toString
          case DateType    => java.time.LocalDate.ofEpochDay(row.getInt(i).toLong)
          case BooleanType => row.getBoolean(i)
          case other       => fail(s"unexpected type $other")
        }
      }.toArray
    }
    r.close()
    out.result()
  }

  test("property: every layout round trips adversarial rows, and stats fold the stored values") {
    val gen = for { rs <- rows(40); layout <- Gen.oneOf(layouts); slices <- Gen.choose(1, 6) }
      yield (rs, layout, slices)
    forAllSeeded(gen, n = 16) { case (rs, layout, slices) =>
      val dir = Files.createTempDirectory("mpt-roundtrip").toFile.getAbsolutePath
      val df = frame(spark, rs, slices)
      val m = MptWriter.write(df, dir, 4, layout)
      val got = spark.read.format("repro.mpt.MptTableProvider").load(dir).collect()
      assert(got.map(canonical).sortBy(_.head.asInstanceOf[Long]).toSeq == rs.map(canonical),
             s"layout $layout, ${rs.size} rows")
      assert(m.partitions.map(_.rowCount).sum == rs.size)
      m.partitions.foreach { e =>
        val values = storedValues(dir, e, m.schema)
        assert(values.size == e.rowCount)
        m.schema.fields.indices.foreach { i =>
          assert(exact(e.stats(i)) == exact(ColumnStats.ofValues(values.map(_(i)))),
                 s"layout $layout, partition ${e.id}, column ${m.schema.fields(i).name}")
        }
      }
      val read = MptManifest.read(dir)
      assert(read.schema == m.schema)
      assert(read.partitions.map(e => (e.id, e.file, e.rowCount, e.stats.map(exact))) ==
             m.partitions.map(e => (e.id, e.file, e.rowCount, e.stats.map(exact))))
    }
  }

  test("AsIs keeps empty partitions as zero-row files") {
    val dir = Files.createTempDirectory("mpt-empty").toFile.getAbsolutePath
    val rs = (0 until 3).map(k => org.apache.spark.sql.Row(k.toLong, 1L, 2, 3.0, "s", null, true, null))
    val m = MptWriter.write(frame(spark, rs, 8), dir, 4, MptWriter.Layout.AsIs)
    assert(m.partitions.size == 8)
    assert(m.partitions.count(_.rowCount == 0) == 5)
    m.partitions.filter(_.rowCount == 0).foreach(e => assert(storedValues(dir, e, m.schema).isEmpty))
    val got = spark.read.format("repro.mpt.MptTableProvider").load(dir).collect()
    assert(got.map(canonical).sortBy(_.head.asInstanceOf[Long]).toSeq == rs.map(canonical))
  }
}
