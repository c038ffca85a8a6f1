package repro.mpt

import java.io.File
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.vectorized.OnHeapColumnVector
import org.apache.spark.sql.types._

import repro.meta.ColumnStats

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

  /** Collects one partition's rows, appending each column's values to a
    * Spark vector — the vector type [[Chunks.decode]] fills — and writes
    * them as one data file. Rows arrive in Spark's internal form, so values
    * are read unboxed: dates as epoch days, strings as their UTF-8 bytes. A
    * row is not kept, so a reused row object is safe.
    */
  final class Writer(schema: StructType) {
    MptSchema.validate(schema)
    private val types: Array[DataType] = schema.fields.map(_.dataType)
    private val columns: Array[OnHeapColumnVector] = types.map(new OnHeapColumnVector(1024, _))
    private var rows = 0

    def add(row: InternalRow): Unit = {
      var i = 0
      while (i < columns.length) {
        val v = columns(i)
        if (row.isNullAt(i)) v.appendNull()
        else types(i) match {
          case LongType               => v.appendLong(row.getLong(i))
          case IntegerType | DateType => v.appendInt(row.getInt(i))
          case DoubleType             => v.appendDouble(row.getDouble(i))
          case BooleanType            => v.appendBoolean(row.getBoolean(i))
          case StringType             => val b = row.getUTF8String(i).getBytes; v.appendByteArray(b, 0, b.length)
        }
        i += 1
      }
      rows += 1
    }

    def rowCount: Long = rows

    /** Each column's zone map, folded by [[repro.core.ColumnVec.stats]] over
      * the column as the manifest reader and the row filter see it.
      */
    def stats: Vector[ColumnStats] =
      Vector.tabulate(columns.length)(i => MptReaderFactory.columnVec(columns(i), types(i), rows).stats(rows))

    /** The data file's bytes, ready to be written. */
    def image: ByteBuffer = {
      val lengths = Array.tabulate(columns.length)(i => chunkLength(columns(i), types(i), rows))
      val out = ByteBuffer.allocate(12 + 4 * columns.length + lengths.sum).order(LE)
      out.putInt(Magic).putInt(rows).putInt(columns.length)
      lengths.foreach(out.putInt)
      for (i <- columns.indices) encode(columns(i), types(i), rows, out)
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

  /** The length of the chunk [[encode]] writes for `rows` rows of `v`. */
  private def chunkLength(v: OnHeapColumnVector, dt: DataType, rows: Int): Int =
    1 + (if (v.hasNull) rows else 0) +
      (if (dt == StringType) 4 * (rows + 1) + v.arrayData().getElementsAppended else rows * dt.defaultSize)

  /** Write `rows` rows of `v` as the chunk [[Chunks.decode]] reads back into
    * such a vector: null flags if some row is NULL, then the values, a NULL
    * row's as 0 or an empty string. A vector's string bytes are in row
    * order, a NULL row adding none, so they are the chunk's string bytes.
    */
  private def encode(v: OnHeapColumnVector, dt: DataType, rows: Int, out: ByteBuffer): Unit = {
    def each(put: Int => Unit): Unit = { var r = 0; while (r < rows) { put(r); r += 1 } }
    out.put((if (v.hasNull) 1 else 0).toByte)
    if (v.hasNull) each(r => out.put((if (v.isNullAt(r)) 1 else 0).toByte))
    dt match {
      case LongType               => each(r => out.putLong(if (v.isNullAt(r)) 0L else v.getLong(r)))
      case DoubleType             => each(r => out.putDouble(if (v.isNullAt(r)) 0.0 else v.getDouble(r)))
      case IntegerType | DateType => each(r => out.putInt(if (v.isNullAt(r)) 0 else v.getInt(r)))
      case BooleanType            => each(r => out.put((if (!v.isNullAt(r) && v.getBoolean(r)) 1 else 0).toByte))
      case StringType =>
        var end = 0
        out.putInt(end)
        each { r => if (!v.isNullAt(r)) end += v.getArrayLength(r); out.putInt(end) }
        out.put(v.arrayData().getBytes(0, end))
    }
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
