package repro.mpt

import java.io.File
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}

import scala.collection.mutable

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.vectorized.OnHeapColumnVector
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.meta.{ColumnStats, Scalar}

/** The data file of one micro-partition: one typed, length-prefixed chunk
  * per column, in manifest schema order (a PAX layout).
  *
  * {{{
  * int32 magic "MPC1", int32 rowCount, int32 columnCount
  * int32 chunkLength * columnCount       lets a reader skip to any chunk
  * chunk * columnCount:
  *   byte hasNulls; if 1, rowCount null flags (one byte each, 1 = NULL)
  *   long, double:  8 bytes per row
  *   int, date:     4 bytes per row (dates as epoch days)
  *   boolean:       1 byte per row (0 or 1)
  *   string:        int32 offsets * (rowCount + 1), then the UTF-8 bytes
  * }}}
  * Integers and doubles are little-endian. A NULL row holds 0 or an empty
  * string; null flags are written only for a column that has nulls in the
  * partition.
  */
object MptDataFile {
  val Extension = "mpc"
  private val Magic = 0x3143504d // "MPC1" read as a little-endian int32
  private val LE = ByteOrder.LITTLE_ENDIAN

  // ---- writing -------------------------------------------------------------

  /** Collects one partition's rows column by column, with each column's zone
    * map, and writes them as one data file. Rows arrive in Spark's internal
    * form, so values are read unboxed: dates as epoch days, strings as their
    * UTF-8 bytes. A row is not kept, so a reused row object is safe.
    */
  final class Writer(schema: StructType) {
    private val columns: Array[ColumnWriter] = schema.fields.map(f => ColumnWriter(f.dataType))
    private var rows = 0

    def add(row: InternalRow): Unit = {
      var i = 0
      while (i < columns.length) { columns(i).add(row, i, rows); i += 1 }
      rows += 1
    }

    def rowCount: Long = rows
    def stats: Vector[ColumnStats] = columns.map(_.stats).toVector

    /** The data file's bytes, ready to be written. */
    def image: ByteBuffer = {
      val lengths = columns.map(_.chunkLength(rows))
      val out = ByteBuffer.allocate(12 + 4 * columns.length + lengths.sum).order(LE)
      out.putInt(Magic).putInt(rows).putInt(columns.length)
      lengths.foreach(out.putInt)
      columns.foreach(_.writeChunk(out, rows))
      out.flip()
    }

    /** Write the data file and force it to the device before returning, so
      * a manifest written afterwards never names a file a power loss could
      * leave incomplete.
      */
    def writeTo(file: File): Unit = writeForced(file.toPath, image)
  }

  /** Write `bytes` as the whole content of `path` and force it to the device. */
  private[mpt] def writeForced(path: Path, bytes: ByteBuffer): Unit = {
    val ch = FileChannel.open(path, StandardOpenOption.CREATE, StandardOpenOption.WRITE,
                              StandardOpenOption.TRUNCATE_EXISTING)
    try {
      while (bytes.hasRemaining) ch.write(bytes)
      ch.force(true)
    } finally ch.close()
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

    final def add(row: InternalRow, i: Int, rowId: Int): Unit =
      if (row.isNullAt(i)) { nullRows += rowId; nulls += 1; putNull() }
      else put(row, i)

    protected def putNull(): Unit
    protected def put(row: InternalRow, i: Int): Unit
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
      case IntegerType => new IntWriter(Scalar.LongV(_))
      case DateType    => new IntWriter(Scalar.DateV(_))
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
    protected def put(row: InternalRow, i: Int): Unit = {
      val v = row.getLong(i)
      values.reserve(8).putLong(v)
      if (!seen) { lo = v; hi = v; seen = true }
      else if (v < lo) lo = v
      else if (v > hi) hi = v
    }
    protected def range = if (seen) Some((Scalar.LongV(lo), Scalar.LongV(hi))) else None
  }

  /** Int and date columns (dates are epoch days in an internal row): four
    * bytes per value; `scalar` types the range.
    */
  private final class IntWriter(scalar: Int => Scalar) extends ColumnWriter {
    private var seen = false
    private var lo, hi = 0
    protected def putNull(): Unit = values.reserve(4).putInt(0)
    protected def put(row: InternalRow, i: Int): Unit = {
      val v = row.getInt(i)
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
    protected def put(row: InternalRow, i: Int): Unit = {
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
    protected def put(row: InternalRow, i: Int): Unit = {
      val v = row.getBoolean(i)
      values.reserve(1).put((if (v) 1 else 0).toByte)
      if (!seen) { lo = v; hi = v; seen = true }
      else { lo &&= v; hi ||= v }
    }
    protected def range = if (seen) Some((Scalar.BoolV(lo), Scalar.BoolV(hi))) else None
  }

  /** Copies each value's UTF-8 bytes and folds min/max in unsigned byte
    * order, which is [[Scalar.compareStrings]]' code-point order; the bounds
    * are decoded once, when the zone map is read.
    */
  private final class StringWriter extends ColumnWriter {
    private val offsets = new Sink
    offsets.reserve(4).putInt(0)
    private var lo, hi: UTF8String = null
    protected def putNull(): Unit = offsets.reserve(4).putInt(values.length)
    protected def put(row: InternalRow, i: Int): Unit = {
      val s = row.getUTF8String(i)
      s.writeTo(values.reserve(s.numBytes))
      offsets.reserve(4).putInt(values.length)
      // The row's bytes may be reused after this call: keep copies.
      if (lo == null) { lo = s.clone(); hi = lo }
      else {
        if (s.binaryCompare(lo) < 0) lo = s.clone()
        if (hi.binaryCompare(s) < 0) hi = s.clone()
      }
    }
    protected def range =
      if (lo != null) Some((Scalar.StringV(lo.toString), Scalar.StringV(hi.toString))) else None
    override protected def valuesLength: Int = offsets.length + values.length
    override protected def writeValues(out: ByteBuffer): Unit = { offsets.writeTo(out); values.writeTo(out) }
  }

  // ---- reading -------------------------------------------------------------

  /** Read a data file whole. */
  def read(file: File): Chunks = new Chunks(Files.readAllBytes(file.toPath), 0, file)

  /** A data file in memory, from `bytes(offset)` to the end of `bytes`, with
    * the start of each column chunk. The header's chunk lengths must add up
    * to the bytes there are, and a chunk must have the length its type and
    * row count give, before it is decoded: the bulk copies into a vector do
    * not check their bounds. A file that fails either check is refused with
    * an `IllegalArgumentException` naming `file`.
    */
  final class Chunks private[mpt] (bytes: Array[Byte], offset: Int, file: File) {
    private val bb = ByteBuffer.wrap(bytes).order(LE)
    private val size = bytes.length - offset
    require(size >= 12 && bb.getInt(offset) == Magic, s"not an mpt data file: $file")
    val rowCount: Int = bb.getInt(offset + 4)
    private val starts: Array[Int] = {
      val n = bb.getInt(offset + 8)
      require(rowCount >= 0 && n >= 0 && 12 + 4L * n <= size, s"corrupt mpt data file header: $file")
      val s = new Array[Int](n + 1)
      var p = 12L + 4 * n
      var c = 0
      while (c < n) {
        s(c) = offset + p.toInt
        val len = bb.getInt(offset + 12 + 4 * c)
        require(len >= 0, s"corrupt mpt data file: chunk $c of $file has length $len")
        p += len
        c += 1
      }
      require(p == size, s"corrupt mpt data file: its chunks take $p bytes, but $file holds $size")
      s(n) = offset + size
      s
    }

    /** Decode column `col` of type `dt` into a new vector: every row when
      * `sel` is null, else rows `sel(0)`, `sel(1)`, … (ascending) into
      * positions 0, 1, ….
      */
    def decode(col: Int, dt: DataType, sel: Array[Int]): OnHeapColumnVector = {
      require(col >= 0 && col < starts.length - 1, s"mpt data file $file has no column $col")
      check(col, dt)
      val n = if (sel == null) rowCount else sel.length
      val v = new OnHeapColumnVector(math.max(n, 1), dt)
      def row(j: Int): Int = if (sel == null) j else sel(j)
      var p = starts(col)
      if (bytes(p) == 1) {
        var j = 0
        while (j < n) { if (bytes(p + 1 + row(j)) == 1) v.putNull(j); j += 1 }
        p += rowCount
      }
      p += 1
      if (dt == StringType) {
        val data = p + 4 * (rowCount + 1)
        v.arrayData().reserve(bb.getInt(data - 4))
        var j = 0
        while (j < n) {
          val o = p + 4 * row(j)
          val start = bb.getInt(o)
          v.putByteArray(j, bytes, data + start, bb.getInt(o + 4) - start)
          j += 1
        }
      } else {
        val width = dt.defaultSize
        // Copy each run of consecutive selected rows with one bulk call.
        var j = 0
        while (j < n) {
          val r = row(j)
          var len = 1
          while (j + len < n && row(j + len) == r + len) len += 1
          putFixed(v, dt, j, len, p + r * width)
          j += len
        }
      }
      v
    }

    /** Refuse chunk `col` unless it is exactly what a column of type `dt`
      * and `rowCount` rows takes: a null-flag byte of 0 or 1 and the flags,
      * then the values; for strings, offsets that start at 0 and ascend to
      * the end of the chunk.
      */
    private def check(col: Int, dt: DataType): Unit = {
      val (start, end) = (starts(col), starts(col + 1))
      def corrupt(what: String) = s"corrupt mpt data file: chunk $col of $file $what"
      require(end > start && (bytes(start) & ~1) == 0, corrupt("has no null-flag byte of 0 or 1"))
      val values = start + 1L + (if (bytes(start) == 1) rowCount else 0)
      if (dt != StringType)
        require(values + rowCount.toLong * dt.defaultSize == end, corrupt(s"does not hold $rowCount $dt values"))
      else {
        val data = values + 4L * rowCount + 4
        require(data <= end, corrupt(s"is too short for ${rowCount + 1} string offsets"))
        var last = 0
        for (r <- 0 to rowCount) {
          val o = bb.getInt(values.toInt + 4 * r)
          require(o >= last && (r > 0 || o == 0), corrupt(s"has string offset $o after $last"))
          last = o
        }
        require(data + last == end, corrupt(s"holds ${end - data} string bytes, its offsets $last"))
      }
    }

    private def putFixed(v: OnHeapColumnVector, dt: DataType, at: Int, count: Int, src: Int): Unit = dt match {
      case LongType               => v.putLongsLittleEndian(at, count, bytes, src)
      case DoubleType             => v.putDoublesLittleEndian(at, count, bytes, src)
      case IntegerType | DateType => v.putIntsLittleEndian(at, count, bytes, src)
      case BooleanType =>
        var k = 0
        while (k < count) { v.putBoolean(at + k, bytes(src + k) != 0); k += 1 }
      case other => throw new IllegalArgumentException(s"unsupported: $other")
    }
  }
}
