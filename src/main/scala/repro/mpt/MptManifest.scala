package repro.mpt

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream, IOException}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths, StandardCopyOption, StandardOpenOption}

import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.meta.{ColumnStats, PartitionMeta, Scalar, TableStats}

/** The mpt table manifest: schema + per-partition zone-map metadata.
  *
  * This is the moral equivalent of Snowflake's metadata service / an Iceberg
  * manifest file: it lets the planner prune micro-partitions without opening
  * any data file. Stored as `_manifest.mpt` next to the partition files
  * ([[MptDataFile]]) and replaced atomically on every write.
  *
  * Format:
  * {{{
  * "mpt-v4\n"
  * int32 columnCount, then (name, type name) per column    (DataOutput.writeUTF)
  * the zone-map table as one MptDataFile image, one row per partition:
  *   int id, string file, long rowCount,
  *   then per column: min, max (in the column's type; NULL without a range),
  *   long nullCount
  * }}}
  * Older tables are not readable and must be rewritten: `mpt-v1`
  * partitions were TSV files, `mpt-v2` string min/max were folded in
  * UTF-16 order, which disagrees with the code-point order pruning uses
  * ([[repro.meta.Scalar.compareStrings]]) on supplementary characters, and
  * `mpt-v3` manifests were text.
  */
final case class MptManifest(schema: StructType, partitions: Vector[MptPartitionEntry]) {
  def metas: Seq[PartitionMeta] = partitions.map(_.meta(schema))
  /** The partitions' zone maps for pruning, built on first use; its
    * `metas(i)` is partition `i`'s record, and columns are transposed to
    * arrays as predicates bind to them.
    */
  lazy val stats: TableStats = TableStats.of(metas.toIndexedSeq)
}

/** One micro-partition: data file name + row count + per-column stats
  * (aligned with the manifest schema order).
  */
final case class MptPartitionEntry(id: Int, file: String, rowCount: Long,
                                   stats: Vector[ColumnStats]) {
  def meta(schema: StructType): PartitionMeta =
    PartitionMeta(id, rowCount, schema.fieldNames.zip(stats).toMap)
}

object MptManifest {
  val FileName = "_manifest.mpt"
  val Version = "mpt-v4"

  /** Write the manifest to a temporary file in `dir`, then move it over
    * `_manifest.mpt` in one atomic step, so a reader sees the old manifest
    * or the new one, never a partial one. The temporary file is forced to
    * the device before the move and the directory after it, so the new
    * manifest survives a power loss once this returns.
    */
  def write(dir: String, manifest: MptManifest): Unit = {
    val fields = manifest.schema.fields
    val head = new ByteArrayOutputStream
    val out = new DataOutputStream(head)
    out.write(s"$Version\n".getBytes(StandardCharsets.UTF_8))
    out.writeInt(fields.length)
    fields.foreach { f => out.writeUTF(f.name); out.writeUTF(MptSchema.typeName(f.dataType)) }
    val zones = new MptDataFile.Writer(zoneSchema(manifest.schema))
    manifest.partitions.foreach { p =>
      val row = new Array[Any](3 + 3 * fields.length)
      row(0) = p.id; row(1) = UTF8String.fromString(p.file); row(2) = p.rowCount
      p.stats.zip(fields).zipWithIndex.foreach { case ((s, f), i) =>
        row(3 + 3 * i) = s.min.map(internal(_, f.dataType)).orNull
        row(4 + 3 * i) = s.max.map(internal(_, f.dataType)).orNull
        row(5 + 3 * i) = s.nullCount
      }
      zones.add(new GenericInternalRow(row))
    }
    val image = zones.image
    val bytes = ByteBuffer.allocate(head.size + image.remaining).put(head.toByteArray).put(image).flip()
    Files.createDirectories(Paths.get(dir))
    val tmp = Paths.get(dir, s"$FileName.${java.util.UUID.randomUUID()}.tmp")
    try {
      MptDataFile.writeForced(tmp, bytes)
      Files.move(tmp, Paths.get(dir, FileName),
                 StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
    } finally Files.deleteIfExists(tmp)
    force(Paths.get(dir))
  }

  /** The zone-map table of a table with `schema`: id, file and row count,
    * then each column's min, max and null count.
    */
  private def zoneSchema(schema: StructType): StructType = StructType(
    Seq(StructField("id", IntegerType), StructField("file", StringType), StructField("rowCount", LongType)) ++
    schema.fields.flatMap(f => Seq(f.copy(name = "min"), f.copy(name = "max"), StructField("nullCount", LongType))))

  /** A zone-map bound as Spark's internal value of a column of type `dt`. */
  private def internal(v: Scalar, dt: DataType): Any = v match {
    case Scalar.LongV(x)   => if (dt == IntegerType) Math.toIntExact(x) else x
    case Scalar.DateV(x)   => x
    case Scalar.DoubleV(x) => x
    case Scalar.BoolV(x)   => x
    case Scalar.StringV(x) => UTF8String.fromString(x)
  }

  /** Force a directory's entries (new, renamed or replaced files) to the
    * device, as `fsync` on a directory does on Linux.
    */
  private def force(dir: Path): Unit = {
    val ch = FileChannel.open(dir, StandardOpenOption.READ)
    try ch.force(true) finally ch.close()
  }

  def read(dir: String): MptManifest = {
    val path = Paths.get(dir, FileName)
    require(Files.exists(path), s"not an mpt table (no $FileName): $dir")
    val bytes = Files.readAllBytes(path)
    val nl = bytes.indexOf('\n'.toByte)
    val header = if (nl < 0) "" else new String(bytes, 0, nl, StandardCharsets.UTF_8)
    require(header == Version,
      s"mpt table $dir has manifest version '$header', but only '$Version' (binary column-chunk " +
      "partitions and zone maps) can be read: rewrite the table with MptWriter")

    val in = new ByteArrayInputStream(bytes, nl + 1, bytes.length - nl - 1)
    val data = new DataInputStream(in)
    val schema = try StructType(Seq.fill(data.readInt()) {
      StructField(data.readUTF(), MptSchema.typeOf(data.readUTF()), nullable = true)
    }) catch { case e: IOException => throw new IllegalArgumentException(s"corrupt mpt schema in $path", e) }
    val zones = new MptDataFile.Chunks(bytes, bytes.length - in.available, path.toFile)
    val n = zones.rowCount
    val ids = zones.decode(0, IntegerType, null)
    val files = zones.decode(1, StringType, null)
    val rowCounts = zones.decode(2, LongType, null)
    // Bounds as typed columns, through the conversion the reader's row
    // filter sees values through.
    val columns = schema.fields.indices.map { i =>
      val dt = schema.fields(i).dataType
      def bounds(col: Int) = MptReaderFactory.columnVec(zones.decode(col, dt, null), dt, n)
      (bounds(3 + 3 * i), bounds(4 + 3 * i), zones.decode(5 + 3 * i, LongType, null))
    }
    val parts = Vector.tabulate(n) { r =>
      val stats = columns.map { case (mins, maxs, nulls) =>
        ColumnStats(Option(mins.get(r)), Option(maxs.get(r)), nulls.getLong(r))
      }.toVector
      MptPartitionEntry(ids.getInt(r), files.getUTF8String(r).toString, rowCounts.getLong(r), stats)
    }
    MptManifest(schema, parts)
  }
}
