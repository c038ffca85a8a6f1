package repro.mpt

import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths, StandardCopyOption, StandardOpenOption}

import org.apache.spark.sql.types.{StructField, StructType}

import repro.meta.{ColumnStats, PartitionMeta, TableStats}

/** The mpt table manifest: schema + per-partition zone-map metadata.
  *
  * This is the moral equivalent of Snowflake's metadata service / an Iceberg
  * manifest file: it lets the planner prune micro-partitions without opening
  * any data file. Stored as `_manifest.mpt` next to the partition files
  * ([[MptDataFile]]) and replaced atomically on every write.
  *
  * Format (TSV lines; names and values in [[MptSchema]]'s field codec):
  * {{{
  * mpt-v3
  * col <TAB> name <TAB> type                        (one per column)
  * part <TAB> id <TAB> file <TAB> rowCount <TAB> (min max nullCount)*
  * }}}
  * Older tables are not readable and must be rewritten: `mpt-v1`
  * partitions were TSV files, and `mpt-v2` string min/max were folded in
  * UTF-16 order, which disagrees with the code-point order pruning uses
  * ([[repro.meta.Scalar.compareStrings]]) on supplementary characters.
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
  val Version = "mpt-v3"

  /** Write the manifest to a temporary file in `dir`, then move it over
    * `_manifest.mpt` in one atomic step, so a reader sees the old manifest
    * or the new one, never a partial one. The temporary file is forced to
    * the device before the move and the directory after it, so the new
    * manifest survives a power loss once this returns.
    */
  def write(dir: String, manifest: MptManifest): Unit = {
    val sb = new StringBuilder
    sb.append(Version).append('\n')
    manifest.schema.fields.foreach { f =>
      sb.append(s"col\t${MptSchema.escape(f.name)}\t${MptSchema.typeName(f.dataType)}\n")
    }
    manifest.partitions.foreach { p =>
      sb.append(s"part\t${p.id}\t${MptSchema.escape(p.file)}\t${p.rowCount}")
      p.stats.zip(manifest.schema.fields).foreach { case (s, f) =>
        val mn = s.min.map(MptSchema.encodeField).getOrElse(MptSchema.NullField)
        val mx = s.max.map(MptSchema.encodeField).getOrElse(MptSchema.NullField)
        sb.append(s"\t$mn\t$mx\t${s.nullCount}")
      }
      sb.append('\n')
    }
    Files.createDirectories(Paths.get(dir))
    val tmp = Paths.get(dir, s"$FileName.${java.util.UUID.randomUUID()}.tmp")
    try {
      MptDataFile.writeForced(tmp, ByteBuffer.wrap(sb.toString.getBytes(StandardCharsets.UTF_8)))
      Files.move(tmp, Paths.get(dir, FileName),
                 StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
    } finally Files.deleteIfExists(tmp)
    force(Paths.get(dir))
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
    val lines = Files.readAllLines(path, StandardCharsets.UTF_8)
    val header = if (lines.isEmpty) "" else lines.get(0)
    require(header == Version,
      s"mpt table $dir has manifest version '$header', but only '$Version' (binary column-chunk " +
      "partitions, string zone maps in code-point order) can be read: rewrite the table with MptWriter")

    val cols = Vector.newBuilder[StructField]
    val parts = Vector.newBuilder[MptPartitionEntry]
    var schema: StructType = null
    lines.forEach { line =>
      val f = line.split('\t')
      f(0) match {
        case "col" =>
          cols += StructField(MptSchema.unescape(f(1)), MptSchema.typeOf(f(2)), nullable = true)
        case "part" =>
          if (schema == null) schema = StructType(cols.result())
          val id = f(1).toInt
          val file = MptSchema.unescape(f(2))
          val rowCount = f(3).toLong
          val stats = schema.fields.indices.map { i =>
            val base = 4 + i * 3
            val mn = f(base); val mx = f(base + 1); val nulls = f(base + 2).toLong
            val dt = schema.fields(i).dataType
            ColumnStats(
              if (mn == MptSchema.NullField) None else Some(MptSchema.decodeField(mn, dt)),
              if (mx == MptSchema.NullField) None else Some(MptSchema.decodeField(mx, dt)),
              nulls)
          }.toVector
          parts += MptPartitionEntry(id, file, rowCount, stats)
        case _ => () // header / unknown line kinds: ignore for forward compat
      }
    }
    if (schema == null) schema = StructType(cols.result())
    MptManifest(schema, parts.result())
  }
}
