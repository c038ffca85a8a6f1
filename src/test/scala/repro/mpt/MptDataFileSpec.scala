package repro.mpt

import java.io.File
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.file.Files

import org.apache.spark.sql.types.{LongType, StringType}

import repro.SparkSpec

/** A data file whose bytes disagree with its header is refused, by name,
  * before a bulk copy could read past the end of the file's bytes: through
  * [[MptDataFile.Chunks]] and through a DataSource V2 read.
  */
class MptDataFileSpec extends SparkSpec {

  /** A one-partition table of columns `l` (long), `s` (string) and `m`
    * (long, never NULL); its data file has `edit` applied.
    */
  private def corrupted(tag: String)(edit: Array[Byte] => Array[Byte]): (String, File) = {
    val dir = Files.createTempDirectory(s"mpt-corrupt-$tag").toFile.getAbsolutePath
    val df = spark.range(20).selectExpr("id AS l", "CAST(id * 7 AS STRING) AS s", "id * 3 AS m")
    val m = MptWriter.write(df, dir, 1, MptWriter.Layout.SortedBy("l"))
    val file = new File(dir, m.partitions.head.file)
    Files.write(file.toPath, edit(Files.readAllBytes(file.toPath)))
    (dir, file)
  }

  private def le(bytes: Array[Byte]): ByteBuffer = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)

  /** The start of chunk `col`. */
  private def chunkStart(bytes: Array[Byte], col: Int): Int = {
    val n = le(bytes).getInt(8)
    12 + 4 * n + (0 until col).map(c => le(bytes).getInt(12 + 4 * c)).sum
  }

  /** Decoding column `col` as `dt` directly, and reading the table through
    * DataSource V2, both fail with an `IllegalArgumentException` that names
    * the data file.
    */
  private def refused(dir: String, file: File, col: Int, dt: org.apache.spark.sql.types.DataType): Unit = {
    val direct = intercept[IllegalArgumentException](MptDataFile.read(file).decode(col, dt, null))
    assert(direct.getMessage.contains(file.toString), direct.getMessage)
    val viaSpark = intercept[Exception](
      spark.read.format("repro.mpt.MptTableProvider").load(dir).collect())
    val causes = Iterator.iterate[Throwable](viaSpark)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains(file.getName)),
           causes.map(_.toString).mkString("\n"))
  }

  test("a data file cut short by its last 8 bytes is refused") {
    val (dir, file) = corrupted("short")(_.dropRight(8))
    refused(dir, file, 2, LongType)
  }

  test("a grown chunk-length field is refused, also when the file grows with it") {
    def grow(pad: Int)(bytes: Array[Byte]): Array[Byte] = {
      val out = java.util.Arrays.copyOf(bytes, bytes.length + pad)
      le(out).putInt(12, le(out).getInt(12) + 8)
      out
    }
    val (dir, file) = corrupted("grown")(grow(0))
    refused(dir, file, 0, LongType)
    val (padDir, padFile) = corrupted("grown-padded")(grow(8))
    MptDataFile.read(padFile) // the lengths add up; chunk 0's does not fit its rows
    refused(padDir, padFile, 0, LongType)
  }

  test("a string offset past the data is refused") {
    val (dir, file) = corrupted("offset") { bytes =>
      val out = bytes.clone()
      val offsets = chunkStart(out, 1) + 1 // no NULLs: no null flags
      val last = offsets + 4 * 20
      le(out).putInt(last, le(out).getInt(last) + 1000)
      out
    }
    refused(dir, file, 1, StringType)
  }
}
