package repro.sim

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.core.{ColumnVec, IndexSort, PartitionData, PExprEval}
import repro.meta._

/** One in-memory micro-partition: one typed column per schema field (see
  * [[ColumnVec]]) plus derived zone-map metadata.
  *
  * This is the simulator's stand-in for a Snowflake micro-partition on
  * object storage: the pruners only ever see [[meta]]; row access models
  * "loading the partition". `data`, `lookupAt` and `rows` are boxed row
  * views over the columns.
  */
final class MemPartition(val id: Int, val schema: IndexedSeq[String],
                         columns: IndexedSeq[ColumnVec], val rowCount: Int) extends PartitionData {
  private val colIdx: Map[String, Int] = schema.zipWithIndex.toMap

  lazy val meta: PartitionMeta =
    PartitionMeta(id, rowCount.toLong, schema.indices.map(i => schema(i) -> columns(i).stats(rowCount)).toMap)

  def column(name: String): ColumnVec = colIdx.get(name) match {
    case Some(i) => columns(i)
    case None    => null
  }

  /** Row `r` as an array in schema order (null = SQL NULL). */
  def data(r: Int): Array[Scalar] = Array.tabulate(columns.size)(columns(_).get(r))

  def rows: Iterator[PExprEval.RowLookup] = Iterator.range(0, rowCount).map(lookupAt)
}

object MemPartition {
  /** The partition holding `rows`, each an array in schema order. */
  def of(id: Int, schema: IndexedSeq[String], rows: Array[Array[Scalar]]): MemPartition =
    new MemPartition(id, schema, schema.indices.map(i => ColumnVec.of(rows.map(_(i)))), rows.length)
}

/** An in-memory micro-partitioned table. */
final class MemTable(val name: String, val schema: IndexedSeq[String],
                     val partitions: Vector[MemPartition]) {
  /** Zone maps of every partition, as records and as column arrays. Folded
    * and transposed once, on first use of either.
    */
  lazy val stats: TableStats = {
    val s = TableStats.of(partitions.map(_.meta))
    schema.foreach(s.column)
    s
  }
  def metas: IndexedSeq[PartitionMeta] = stats.metas
  def partition(id: Int): MemPartition = partitions(id)
  def numPartitions: Int = partitions.size
  def totalRows: Long = partitions.map(_.rowCount.toLong).sum

  /** Materialize as a Spark DataFrame (for oracle cross-checks). Column
    * types are inferred from the first non-null value per column.
    */
  def toDF(spark: SparkSession): DataFrame = {
    val allRows = partitions.flatMap(p => Iterator.range(0, p.rowCount).map(p.data))
    val types: IndexedSeq[DataType] = schema.indices.map { i =>
      allRows.iterator.map(_(i)).collectFirst {
        case Scalar.LongV(_)   => LongType
        case Scalar.DoubleV(_) => DoubleType
        case Scalar.StringV(_) => StringType
        case Scalar.DateV(_)   => DateType
        case Scalar.BoolV(_)   => BooleanType
      }.getOrElse(StringType)
    }
    val structType = StructType(schema.zip(types).map { case (n, t) => StructField(n, t, nullable = true) })
    val sparkRows = allRows.map { arr =>
      Row.fromSeq(arr.toSeq.map {
        case null              => null
        case Scalar.LongV(v)   => v
        case Scalar.DoubleV(v) => v
        case Scalar.StringV(v) => v
        case Scalar.DateV(d)   => java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(d.toLong))
        case Scalar.BoolV(v)   => v
      })
    }
    spark.createDataFrame(spark.sparkContext.parallelize(sparkRows.toSeq, math.max(1, partitions.size)), structType)
  }
}

object MemTable {

  /** Physical layout of rows across micro-partitions — the paper stresses
    * that pruning effectiveness is primarily a function of layout (§1, §5.3).
    */
  sealed trait Layout extends Product with Serializable
  object Layout {
    /** Perfectly sorted by `col` — disjoint min/max ranges. */
    final case class Sorted(col: String) extends Layout
    /** Sorted by `col` + noise: adjacent partitions overlap, modelling
      * natural clustering (e.g. event time with late arrivals).
      * `jitter` is the fraction of the value range a row may move.
      */
    final case class Clustered(col: String, jitter: Double, seed: Long) extends Layout
    /** Rows shuffled uniformly — worst case for min/max pruning. */
    final case class Random(seed: Long) extends Layout
  }

  /** [[build]] over rows, each an array in schema order that may contain
    * nulls (SQL NULL): each column becomes the narrowest [[ColumnVec]]
    * holding its values.
    */
  def build(name: String, schema: IndexedSeq[String], rows: IndexedSeq[Array[Scalar]],
            numPartitions: Int, layout: Layout): MemTable =
    build(name, schema, schema.indices.map(i => ColumnVec.of(rows.iterator.map(_(i)).toArray)),
          rows.size, numPartitions, layout)

  /** Split the `rowCount` rows of `columns` (in schema order) into
    * `numPartitions` equal chunks after arranging them per the layout. The
    * arrangement is a stable sort of row positions: by the layout column's
    * typed values, NULLs first and incomparable values tied, and for
    * `Clustered` then by a noisy position. Each partition gathers its rows
    * of every column into arrays of its own.
    */
  def build(name: String, schema: IndexedSeq[String], columns: IndexedSeq[ColumnVec], rowCount: Int,
            numPartitions: Int, layout: Layout): MemTable = {
    val colIdx = schema.zipWithIndex.toMap
    def sortedBy(col: String): Array[Int] = {
      val c = columns(colIdx(col))
      IndexSort.range(rowCount, (x, y) =>
        if (c.isNull(x)) { if (c.isNull(y)) 0 else -1 }
        else if (c.isNull(y)) 1
        else {
          val r = c.compareRows(x, y)
          if (r == ColumnVec.NC) 0 else r
        })
    }
    val arranged: Array[Int] = layout match {
      case Layout.Sorted(col) => sortedBy(col)
      case Layout.Clustered(col, jitter, seed) =>
        val sorted = sortedBy(col)
        val rnd = new scala.util.Random(seed)
        val n = sorted.length
        // Jitter each row's position by up to `jitter` × n slots, then re-sort
        // by the noisy position: preserves global order, adds local overlap.
        val noisy = new Array[Double](n)
        var pos = 0
        while (pos < n) { noisy(pos) = pos + (rnd.nextGaussian() * jitter * n); pos += 1 }
        IndexSort.range(n, (x, y) => java.lang.Double.compare(noisy(x), noisy(y))).map(sorted(_))
      case Layout.Random(seed) =>
        new scala.util.Random(seed).shuffle(Vector.range(0, rowCount)).toArray
    }
    val n = math.max(1, numPartitions)
    val per = math.max(1, (rowCount + n - 1) / n)
    val parts = Vector.tabulate((rowCount + per - 1) / per) { i =>
      val from = i * per
      val until = math.min(rowCount, from + per)
      new MemPartition(i, schema, columns.map(_.select(arranged, from, until)), until - from)
    }
    new MemTable(name, schema, parts)
  }
}
