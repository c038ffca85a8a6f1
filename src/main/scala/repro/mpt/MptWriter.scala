package repro.mpt

import java.io.File

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.util.QuotingUtils
import org.apache.spark.sql.functions.{col, rand}
import org.apache.spark.sql.types.StructType

/** Writes a DataFrame as an mpt table: one binary file of column chunks per
  * micro-partition ([[MptDataFile]]) plus a manifest with per-partition zone
  * maps ([[MptManifest]]).
  *
  * The physical layout is the knob the paper keeps pointing at: sorted /
  * clustered layouts give pruning-friendly disjoint ranges, random layouts
  * are the worst case. Stats are computed in the writing task, exactly like
  * an engine computes SMAs while flushing a micro-partition, by the fold the
  * simulator uses ([[repro.core.ColumnVec.stats]]).
  *
  * Each micro-partition is one partition of the arranged DataFrame's
  * exchange, but a write runs one Spark task per core, not one per
  * micro-partition: a task reads its share of the exchange's partitions one
  * after another, each straight from Spark's internal rows into its own
  * data file.
  *
  * Rewriting a table is crash-safe: data files get names no earlier write
  * used, the manifest is replaced atomically, and only then are the data
  * files it does not reference deleted. Until the swap the old manifest and
  * its files stay intact. Data files are forced to the device before the
  * manifest that names them is written, so the swap is durable too.
  */
object MptWriter {

  sealed trait Layout extends Product with Serializable
  object Layout {
    /** Range-partition + sort by `col`: disjoint per-partition ranges. */
    final case class SortedBy(col: String) extends Layout
    /** Range-partition by `col` + noise (numeric columns only): overlapping
      * but correlated ranges — models natural clustering.
      */
    final case class ClusteredBy(col: String, jitter: Double, seed: Long = 7) extends Layout
    /** Uniform shuffle: min/max pruning is nearly useless. */
    final case class Random(seed: Long = 7) extends Layout
    /** Keep the DataFrame's partitioning as-is. */
    case object AsIs extends Layout
  }

  /** Column `c` by its whole name, also when that name has a dot or needs
    * quoting in SQL (`col("a.b")` would read a field `b` of a struct `a`).
    */
  private def column(c: String): Column = col(QuotingUtils.quoteIdentifier(c))

  /** Write `df` to `dir` as `numPartitions` micro-partitions arranged by
    * `layout`, and return the manifest written, as [[MptManifest.read]]
    * reads it.
    */
  def write(df: DataFrame, dir: String, numPartitions: Int, layout: Layout): MptManifest = {
    MptSchema.validate(df.schema)
    val arranged = layout match {
      case Layout.SortedBy(c) =>
        df.repartitionByRange(numPartitions, column(c)).sortWithinPartitions(column(c))
      case Layout.ClusteredBy(c, jitter, seed) =>
        val noisy: Column = column(c) + (rand(seed) - 0.5) * jitter
        df.repartitionByRange(numPartitions, noisy).sortWithinPartitions(column(c))
      case Layout.Random(seed) =>
        df.repartition(numPartitions, (rand(seed) * 1e9).cast("long"))
      case Layout.AsIs => df
    }

    // mpt columns are always nullable on read.
    val schema = StructType(df.schema.fields.map(_.copy(nullable = true)))
    new File(dir).mkdirs()
    val writeId = java.util.UUID.randomUUID().toString.take(8)
    // Local mode: executor threads share the driver's filesystem, so tasks
    // write their partition file directly and return only the stats.
    val rows = arranged.queryExecution.toRdd
    // An empty exchange may have no partitions; coalesce needs at least one.
    val tasks = math.max(1, math.min(rows.getNumPartitions, df.sparkSession.sparkContext.defaultParallelism))
    val entries = rows.mapPartitionsWithIndex { (idx, part) =>
      val file = f"part-$idx%05d-$writeId.${MptDataFile.Extension}"
      val w = new MptDataFile.Writer(schema)
      part.foreach(w.add)
      w.writeTo(new File(dir, file))
      Iterator.single(MptPartitionEntry(idx, file, w.rowCount, w.stats))
    }.coalesce(tasks).collect().sortBy(_.id).toVector

    // Re-number densely (some layouts may produce empty partitions).
    val manifest = MptManifest.write(dir, schema, entries.zipWithIndex.map { case (e, i) => e.copy(id = i) })
    // The new manifest is live: drop data files it does not reference,
    // including those of an earlier write or an older format.
    val live = manifest.files.toSet
    Option(new File(dir).listFiles()).toSeq.flatten
      .filter(f => f.getName.startsWith("part-") && !live(f.getName))
      .foreach(_.delete())
    manifest
  }
}
