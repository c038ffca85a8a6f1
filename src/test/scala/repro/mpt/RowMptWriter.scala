package repro.mpt

import java.io.File
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.catalyst.util.DateTimeUtils
import org.apache.spark.sql.functions.{col, rand}
import org.apache.spark.sql.types._

import repro.meta.{ColumnStats, Scalar}

/** The mpt writer as it was before writes ran one task per core: a verbatim
  * copy of `MptWriter.write` (one Spark task per micro-partition, through
  * `df.rdd`) and of `MptDataFile.Writer` (fed external `Row`s, strings folded
  * as Java strings), kept as the reference [[MptWriterSpec]] compares the
  * current writer with.
  */
object RowMptWriter {
  def write(df: DataFrame, dir: String, numPartitions: Int, layout: MptWriter.Layout): MptManifest = {
    MptSchema.validate(df.schema)
    val arranged = layout match {
      case MptWriter.Layout.SortedBy(c) =>
        df.repartitionByRange(numPartitions, col(c)).sortWithinPartitions(col(c))
      case MptWriter.Layout.ClusteredBy(c, jitter, seed) =>
        val noisy: Column = col(c) + (rand(seed) - 0.5) * jitter
        df.repartitionByRange(numPartitions, noisy).sortWithinPartitions(col(c))
      case MptWriter.Layout.Random(seed) =>
        df.repartition(numPartitions, (rand(seed) * 1e9).cast("long"))
      case MptWriter.Layout.AsIs => df
    }

    // mpt columns are always nullable on read.
    val schema = StructType(df.schema.fields.map(_.copy(nullable = true)))
    new File(dir).mkdirs()
    val writeId = java.util.UUID.randomUUID().toString.take(8)
    // Local mode: executor threads share the driver's filesystem, so tasks
    // write their partition file directly and return only the stats.
    val entries = arranged.rdd.mapPartitionsWithIndex { (idx, rows) =>
      val file = f"part-$idx%05d-$writeId.${MptDataFile.Extension}"
      val w = new Writer(schema)
      rows.foreach(w.add)
      w.writeTo(new File(dir, file))
      Iterator.single(MptPartitionEntry(idx, file, w.rowCount, w.stats))
    }.collect().sortBy(_.id).toVector

    // Re-number densely (some layouts may produce empty partitions).
    val manifest = MptManifest.write(dir, schema, entries.zipWithIndex.map { case (e, i) => e.copy(id = i) })
    // The new manifest is live: drop data files it does not reference,
    // including those of an earlier write or an older format.
    val live = manifest.partitions.map(_.file).toSet
    Option(new File(dir).listFiles()).toSeq.flatten
      .filter(f => f.getName.startsWith("part-") && !live(f.getName))
      .foreach(_.delete())
    manifest
  }

  private val Magic = 0x3143504d // "MPC1" read as a little-endian int32
  private val LE = ByteOrder.LITTLE_ENDIAN

  /** Collects one partition's rows column by column, with each column's zone
    * map, and writes them as one data file.
    */
  final class Writer(schema: StructType) {
    private val columns: Array[ColumnWriter] = schema.fields.map(f => ColumnWriter(f.dataType))
    private var rows = 0

    def add(row: Row): Unit = {
      var i = 0
      while (i < columns.length) { columns(i).add(row, i, rows); i += 1 }
      rows += 1
    }

    def rowCount: Long = rows
    def stats: Vector[ColumnStats] = columns.map(_.stats).toVector

    def writeTo(file: File): Unit = {
      val lengths = columns.map(_.chunkLength(rows))
      val out = ByteBuffer.allocate(12 + 4 * columns.length + lengths.sum).order(LE)
      out.putInt(Magic).putInt(rows).putInt(columns.length)
      lengths.foreach(out.putInt)
      columns.foreach(_.writeChunk(out, rows))
      Files.write(file.toPath, out.array)
    }
  }

  /** A growable little-endian byte buffer. */
  private final class Sink {
    var buf: ByteBuffer = ByteBuffer.allocate(4096).order(LE)
    def reserve(n: Int): ByteBuffer = {
      if (buf.remaining < n) {
        val grown = ByteBuffer.allocate(math.max(2 * buf.capacity, buf.position + n)).order(LE)
        buf.flip()
        buf = grown.put(buf)
      }
      buf
    }
    def length: Int = buf.position
    def writeTo(out: ByteBuffer): Unit = out.put(buf.array, 0, buf.position)
  }

  /** One column's values, null flags and zone map. The zone map follows
    * [[Scalar.compare]]: on ties the first value is kept, which is what
    * tells -0.0 from 0.0.
    */
  private sealed abstract class ColumnWriter {
    protected val values = new Sink
    private val nullRows = mutable.ArrayBuilder.make[Int]
    private var nulls = 0

    final def add(row: Row, i: Int, rowId: Int): Unit =
      if (row.isNullAt(i)) { nullRows += rowId; nulls += 1; putNull() }
      else put(row, i)

    protected def putNull(): Unit
    protected def put(row: Row, i: Int): Unit
    /** Min and max, or None if every value was NULL. */
    protected def range: Option[(Scalar, Scalar)]

    final def stats: ColumnStats = {
      val r = range
      ColumnStats(r.map(_._1), r.map(_._2), nulls)
    }

    protected def valuesLength: Int = values.length
    protected def writeValues(out: ByteBuffer): Unit = values.writeTo(out)

    final def chunkLength(rows: Int): Int = 1 + (if (nulls > 0) rows else 0) + valuesLength

    final def writeChunk(out: ByteBuffer, rows: Int): Unit = {
      if (nulls == 0) out.put(0.toByte)
      else {
        val flags = new Array[Byte](rows)
        nullRows.result().foreach(r => flags(r) = 1)
        out.put(1.toByte).put(flags)
      }
      writeValues(out)
    }
  }

  private object ColumnWriter {
    def apply(dt: DataType): ColumnWriter = dt match {
      case LongType    => new LongWriter
      case IntegerType => new IntWriter(_.getInt(_), Scalar.LongV(_))
      case DateType    => new IntWriter((r, i) => DateTimeUtils.anyToDays(r.get(i)), Scalar.DateV(_))
      case DoubleType  => new DoubleWriter
      case BooleanType => new BooleanWriter
      case StringType  => new StringWriter
      case other       => throw new IllegalArgumentException(s"unsupported: $other")
    }
  }

  private final class LongWriter extends ColumnWriter {
    private var seen = false
    private var lo, hi = 0L
    protected def putNull(): Unit = values.reserve(8).putLong(0L)
    protected def put(row: Row, i: Int): Unit = {
      val v = row.getLong(i)
      values.reserve(8).putLong(v)
      if (!seen) { lo = v; hi = v; seen = true }
      else if (v < lo) lo = v
      else if (v > hi) hi = v
    }
    protected def range = if (seen) Some((Scalar.LongV(lo), Scalar.LongV(hi))) else None
  }

  /** Int and date columns: four bytes per value; `value` reads it as an int
    * (epoch days for dates), `scalar` types the range.
    */
  private final class IntWriter(value: (Row, Int) => Int, scalar: Int => Scalar) extends ColumnWriter {
    private var seen = false
    private var lo, hi = 0
    protected def putNull(): Unit = values.reserve(4).putInt(0)
    protected def put(row: Row, i: Int): Unit = {
      val v = value(row, i)
      values.reserve(4).putInt(v)
      if (!seen) { lo = v; hi = v; seen = true }
      else if (v < lo) lo = v
      else if (v > hi) hi = v
    }
    protected def range = if (seen) Some((scalar(lo), scalar(hi))) else None
  }

  private final class DoubleWriter extends ColumnWriter {
    private var seen = false
    private var lo, hi = 0.0
    protected def putNull(): Unit = values.reserve(8).putDouble(0.0)
    protected def put(row: Row, i: Int): Unit = {
      val v = row.getDouble(i)
      values.reserve(8).putDouble(v)
      if (!seen) { lo = v; hi = v; seen = true }
      else {
        if (Scalar.compareDoubles(v, lo) < 0) lo = v
        if (Scalar.compareDoubles(hi, v) < 0) hi = v
      }
    }
    protected def range = if (seen) Some((Scalar.DoubleV(lo), Scalar.DoubleV(hi))) else None
  }

  private final class BooleanWriter extends ColumnWriter {
    private var seen = false
    private var lo, hi = false
    protected def putNull(): Unit = values.reserve(1).put(0.toByte)
    protected def put(row: Row, i: Int): Unit = {
      val v = row.getBoolean(i)
      values.reserve(1).put((if (v) 1 else 0).toByte)
      if (!seen) { lo = v; hi = v; seen = true }
      else { lo &&= v; hi ||= v }
    }
    protected def range = if (seen) Some((Scalar.BoolV(lo), Scalar.BoolV(hi))) else None
  }

  private final class StringWriter extends ColumnWriter {
    private val offsets = new Sink
    offsets.reserve(4).putInt(0)
    private var lo, hi: String = null
    protected def putNull(): Unit = offsets.reserve(4).putInt(values.length)
    protected def put(row: Row, i: Int): Unit = {
      val s = row.getString(i)
      val bytes = s.getBytes(StandardCharsets.UTF_8)
      values.reserve(bytes.length).put(bytes)
      offsets.reserve(4).putInt(values.length)
      if (lo == null) { lo = s; hi = s }
      else {
        if (Scalar.compareStrings(s, lo) < 0) lo = s
        if (Scalar.compareStrings(hi, s) < 0) hi = s
      }
    }
    protected def range = if (lo != null) Some((Scalar.StringV(lo), Scalar.StringV(hi))) else None
    override protected def valuesLength: Int = offsets.length + values.length
    override protected def writeValues(out: ByteBuffer): Unit = { offsets.writeTo(out); values.writeTo(out) }
  }
}
