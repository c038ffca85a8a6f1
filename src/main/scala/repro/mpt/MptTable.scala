package repro.mpt

import java.util.{Map => JMap}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.{NamedReference, NullOrdering, SortDirection, SortOrder, Transform}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.Filter
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.sql.vectorized.{ColumnVector, ColumnarBatch}

import repro.core._
import repro.meta.Scalar

/** DataSource V2 provider for mpt (micro-partitioned) tables.
  *
  * This is where the paper's pruning techniques meet Catalyst:
  *
  *  - `SupportsPushDownFilters` → compile-time filter pruning (§3): one
  *    classification of the manifest's zone maps, the pass the simulator
  *    runs too, prunes partitions and marks the fully-matching ones (§4.2).
  *    Filters we can evaluate exactly are accepted and applied in the
  *    reader; the rest stay residual and Spark re-applies them.
  *  - `SupportsPushDownLimit` → LIMIT pruning (§4): scan set reduced to the
  *    minimal fully-matching cover of k. Spark keeps the Limit operator
  *    (partial push), so any superset of k qualifying rows is a valid scan
  *    output.
  *  - `SupportsPushDownTopN` → top-k pruning (§5): partitions reordered by
  *    boundary potential (§5.3), statically pruned with the upfront
  *    boundary (§5.4), and skipped at *runtime* via the scan's shared
  *    [[BoundaryHeap]], held in its [[ScanMetrics]], as readers tighten the
  *    boundary (§5.2); a reader checks it before each micro-partition of its
  *    task.
  *
  * Usage: `spark.read.format("repro.mpt.MptTableProvider").load(dir)`.
  */
class MptTableProvider extends TableProvider {
  override def supportsExternalMetadata(): Boolean = false

  private def dirOf(options: CaseInsensitiveStringMap): String = {
    val p = options.get("path")
    require(p != null, "mpt: missing 'path' option")
    p
  }

  /** The manifest `inferSchema` read, with its directory, for `getTable`. */
  private var inferred: Option[(String, MptManifest)] = None

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = {
    val dir = dirOf(options)
    val manifest = MptManifest.read(dir)
    inferred = Some(dir -> manifest)
    manifest.schema
  }

  /** The table over the manifest `inferSchema` read for the same path, so
    * that one `load()` sees one snapshot of the table; else over a fresh read.
    */
  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: JMap[String, String]): Table = {
    val dir = dirOf(new CaseInsensitiveStringMap(properties))
    val manifest = inferred.collect { case (d, m) if d == dir => m }.getOrElse(MptManifest.read(dir))
    inferred = None
    new MptTable(dir, manifest)
  }
}

final class MptTable(dir: String, val manifest: MptManifest) extends Table with SupportsRead {
  override def name(): String = s"mpt:$dir"
  override def schema(): StructType = manifest.schema
  override def capabilities(): java.util.Set[TableCapability] =
    Set(TableCapability.BATCH_READ).asJava
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new MptScanBuilder(dir, manifest)
}

/** Serializable plan-time description of a pushed TopN. */
final case class TopKPlan(orderCol: String, desc: Boolean, k: Int)

final class MptScanBuilder(dir: String, manifest: MptManifest)
    extends ScanBuilder
    with SupportsPushDownFilters
    with SupportsPushDownRequiredColumns
    with SupportsPushDownLimit
    with SupportsPushDownTopN {

  // Scan-set state, as positions in `manifest.partitions` (and its stats),
  // refined by each pushdown in Catalyst's order: filters → limit / topN →
  // column pruning. Without a predicate every non-empty partition is in the
  // scan set and fully matching (§4.2).
  private var scan: Array[Int] = FilterPruner.noPredicate(manifest.stats).scanIndices
  private var fully: Array[Int] = scan
  private var acceptedFilters: Array[Filter] = Array.empty
  private var rowFilter: Option[PExpr] = None
  private var readSchema: StructType = manifest.schema
  private var topK: Option[TopKPlan] = None
  private var limitOutcomeStr: String = ""
  private var afterFilterCount: Int = scan.length
  private var afterLimitCount: Int = scan.length

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val (ok, rest) = filters.map(f => f -> FilterTranslator.translate(f)).partition(_._2.isDefined)
    val residual = rest.map(_._1)
    acceptedFilters = ok.map(_._1)
    rowFilter = if (ok.isEmpty) None else Some(PExpr.and(ok.toSeq.flatMap(_._2)))
    // Filters are pushed before limit and top-N, so they classify the whole
    // manifest. One pass prunes (§3) and certifies the fully-matching
    // partitions (§4.2); the §3.2 pruning tree would keep a superset of the
    // same partitions at several times the cost, so it does not run here.
    val filtered = FilterPruner.classifyOpt(manifest.stats, rowFilter)
    scan = filtered.scanIndices
    // Residual filters Spark re-applies could reject rows of a partition we
    // deem fully matching, so §4.2 certification requires full translation.
    fully = if (residual.nonEmpty) Array.emptyIntArray else filtered.fullyIndices
    afterFilterCount = scan.length
    afterLimitCount = scan.length
    residual
  }

  override def pushedFilters(): Array[Filter] = acceptedFilters

  /** Both limit and topN are only partially pushed: Spark keeps the final
    * Limit/TopK operator, so the scan may return any qualifying superset.
    */
  override def isPartiallyPushed(): Boolean = true

  override def pushLimit(limit: Int): Boolean = {
    val res = LimitPruner.prune(manifest.stats, scan, fully, limit.toLong, shapeSupported = true)
    limitOutcomeStr = LimitPruner.bucket(res.outcome)
    res.outcome match {
      case LimitPruner.LimitOutcome.Pruned(_) =>
        // Keep the chosen partitions in scan (manifest) order: the cover is
        // drawn from `fully`, which lies in the ascending `scan`.
        scan = res.scanIndices.clone()
        java.util.Arrays.sort(scan)
        afterLimitCount = scan.length
        true
      case _ =>
        afterLimitCount = scan.length
        false
    }
  }

  override def pushTopN(orders: Array[SortOrder], limit: Int): Boolean = {
    if (orders.length != 1) return false
    val o = orders(0)
    val colName = o.expression() match {
      case nr: NamedReference if nr.fieldNames().length == 1 => nr.fieldNames()(0)
      case _ => return false
    }
    if (!manifest.schema.fieldNames.contains(colName)) return false
    val desc = o.direction() == SortDirection.DESCENDING
    // Boundary pruning assumes nulls sort last; accept NULLS_FIRST only when
    // the column provably contains no nulls.
    if (o.nullOrdering() == NullOrdering.NULLS_FIRST && manifest.stats.column(colName).nullCount.sum > 0) return false
    topK = Some(TopKPlan(colName, desc, limit))
    true
  }

  override def pruneColumns(requiredSchema: StructType): Unit =
    readSchema = requiredSchema

  override def build(): Scan = {
    val (ordered, heap) = topK match {
      case None => (scan, null)
      case Some(plan) =>
        val q = TopKPruner.TopKQuery(plan.orderCol, plan.k, plan.desc)
        val heap = new BoundaryHeap(plan.k, plan.desc, TopKPruner.upfrontBoundary(manifest.stats, fully, q).orNull)
        // §5.4 static pruning: below the upfront boundary nothing can qualify.
        val zones = manifest.stats.column(plan.orderCol)
        val statically = scan.filterNot(i => heap.shouldSkip(TopKPruner.best(zones, i, plan.desc)))
        // §5.3 processing order: best boundary potential first; all-null last.
        (TopKPruner.processingOrder(manifest.stats, statically, plan.orderCol, plan.desc), heap)
    }
    val stats = new ScanMetrics.Stats(dir, heap)
    stats.totalPartitions = manifest.partitions.size
    stats.afterFilterPruning = afterFilterCount
    stats.afterLimitPruning = afterLimitCount
    stats.fullyMatching = fully.length
    stats.limitOutcome = limitOutcomeStr
    stats.afterTopKStatic = ordered.length
    val scanId = ScanMetrics.register(stats)
    val certified = new Array[Boolean](manifest.partitions.size)
    fully.foreach(certified(_) = true)
    val parts = ordered.toVector.map { i =>
      val e = manifest.partitions(i)
      val best = topK.flatMap(p => Option(TopKPruner.best(manifest.stats.column(p.orderCol), i, p.desc)))
      MptInputPartition(dir, e.file, e.id, best, scanId, certified(i))
    }
    new MptScan(dir, manifest.schema, readSchema, parts, ordered.iterator.map(manifest.stats.rowCount).sum,
                rowFilter, topK)
  }
}

/** One micro-partition of a scan. `orderBest` is its best possible top-k
  * order value (None without top-k or when the column is all NULL);
  * `fullyMatching` is its §4.2 certificate: every row passes the pushed
  * filter, so the reader need not evaluate it.
  */
final case class MptInputPartition(dir: String, file: String, partId: Int,
                                   orderBest: Option[Scalar], scanId: Long,
                                   fullyMatching: Boolean = false)
  extends InputPartition

/** One scan task: micro-partitions read one after another, in scan order. */
final case class MptTaskPartition(parts: Vector[MptInputPartition]) extends InputPartition

/** A planned mpt scan of `parts`, which hold `rows` rows. Its
  * micro-partitions, in scan order (§5.3 boundary potential under top-k,
  * manifest order otherwise), are dealt round-robin to one task per core, so
  * every task starts with one of the most promising micro-partitions.
  */
final class MptScan(dir: String, fullSchema: StructType, required: StructType,
                    parts: Vector[MptInputPartition], rows: Long,
                    rowFilter: Option[PExpr], topK: Option[TopKPlan])
  extends Scan with Batch with SupportsReportStatistics {

  override def readSchema(): StructType = required
  override def toBatch: Batch = this
  override def description(): String = {
    val tasks = math.min(parts.size, MptScan.parallelism)
    val fully = parts.count(_.fullyMatching)
    s"mpt scan of $dir: ${parts.size} micro-partitions in $tasks tasks, $fully fully matching " +
    s"(topK=$topK, filter=$rowFilter)"
  }

  /** The planned micro-partitions' rows at Spark's size per row of the
    * read schema (`EstimationUtils.getSizePerRow`: 8 bytes of row overhead
    * plus each column's default size), so that Catalyst can plan a
    * broadcast join. The row count stays unknown: it is an upper bound
    * until the row filter has run.
    */
  override def estimateStatistics(): Statistics = {
    val size = rows * (8L + required.defaultSize)
    new Statistics {
      override def sizeInBytes(): java.util.OptionalLong = java.util.OptionalLong.of(size)
      override def numRows(): java.util.OptionalLong = java.util.OptionalLong.empty()
    }
  }

  /** Fails here, before any task runs, when a planned data file is missing. */
  override def planInputPartitions(): Array[InputPartition] = {
    for (p <- parts if !new java.io.File(dir, p.file).isFile) throw new java.io.FileNotFoundException(
      s"mpt table $dir: data file ${p.file} of micro-partition ${p.partId} is missing")
    MptScan.pack(parts, MptScan.parallelism).toArray
  }

  override def createReaderFactory(): PartitionReaderFactory =
    new MptReaderFactory(fullSchema, required, rowFilter, topK)
}

object MptScan {
  /** `min(parts.size, tasks)` tasks; task `t` holds parts `t`, `t + tasks`,
    * `t + 2 · tasks`, … in their given order.
    */
  def pack(parts: Vector[MptInputPartition], tasks: Int): Vector[MptTaskPartition] = {
    val n = math.min(parts.size, tasks)
    Vector.tabulate(n)(t => MptTaskPartition((t until parts.size by n).map(parts).toVector))
  }

  private def parallelism: Int = SparkSession.active.sparkContext.defaultParallelism
}

/** Reads a task's micro-partitions one after another, lazily, as one
  * [[ColumnarBatch]] of on-heap vectors each; a bare [[MptInputPartition]]
  * is a task of one. Before it opens a micro-partition the reader consults
  * the top-k boundary (§5.2), which this and other tasks may have tightened
  * since the scan was planned.
  *
  * A reader decodes only the columns it needs: the row filter's and the
  * top-k order column's first, to select the rows that pass the filter and
  * may still reach the top-k; then the `required` columns, for those rows.
  * The selection runs over typed [[Columns]] as the simulator's does: the
  * filter is bound with [[RowEval]], and each order value is offered to the
  * shared [[BoundaryHeap]]. The filter is not evaluated on a fully-matching
  * micro-partition. `createReader` is a row view over the same batches.
  */
final class MptReaderFactory(fullSchema: StructType, required: StructType,
                             rowFilter: Option[PExpr], topK: Option[TopKPlan])
  extends PartitionReaderFactory {

  private val filterCols: Set[String] =
    rowFilter.map(PExpr.columns).getOrElse(Set.empty[String]).filter(fullSchema.fieldNames.contains)

  override def supportColumnarReads(partition: InputPartition): Boolean = true

  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val batches = createColumnarReader(partition)
    new PartitionReader[InternalRow] {
      private var rows: java.util.Iterator[InternalRow] = java.util.Collections.emptyIterator()
      private var current: InternalRow = _

      override def next(): Boolean = {
        while (!rows.hasNext) {
          if (!batches.next()) return false
          rows = batches.get().rowIterator()
        }
        current = rows.next()
        true
      }
      override def get(): InternalRow = current
      override def close(): Unit = batches.close()
    }
  }

  override def createColumnarReader(partition: InputPartition): PartitionReader[ColumnarBatch] = {
    val parts = partition match {
      case t: MptTaskPartition  => t.parts
      case p: MptInputPartition => Vector(p)
    }
    new PartitionReader[ColumnarBatch] {
      private val pending = parts.iterator
      private var batch: ColumnarBatch = _
      private var owned: Seq[ColumnVector] = Nil

      override def next(): Boolean = {
        close() // the previous micro-partition's vectors
        while (batch == null && pending.hasNext)
          read(pending.next()).foreach { case (b, vectors) => batch = b; owned = vectors }
        batch != null
      }

      override def get(): ColumnarBatch = batch
      override def close(): Unit = {
        owned.foreach(_.close())
        owned = Nil
        batch = null
      }
    }
  }

  /** One micro-partition's rows that pass, as a batch plus every vector
    * decoded for it; None when the runtime boundary skips it or no row
    * passes.
    */
  private def read(p: MptInputPartition): Option[(ColumnarBatch, Seq[ColumnVector])] = {
    val stats = ScanMetrics.forScan(p.scanId)
    val heap = if (topK.isEmpty) null else stats.map(_.heap).orNull

    // Runtime top-k pruning (§5.2): consult the shared boundary *now*, after
    // earlier micro-partitions may have tightened it beyond the plan-time value.
    if (heap != null && heap.shouldSkip(p.orderBest.orNull)) {
      stats.foreach(_.runtimeSkipped.incrementAndGet())
      return None
    }

    stats.foreach(_.filesOpened.incrementAndGet())
    val chunks = MptDataFile.read(new java.io.File(p.dir, p.file))
    def decode(name: String, sel: Array[Int]): ColumnVector = {
      val i = fullSchema.fieldIndex(name)
      chunks.decode(i, fullSchema.fields(i).dataType, sel)
    }
    val filter = if (p.fullyMatching) None else rowFilter
    // The columns the filter and the top-k boundary read, whole.
    val probeCols = (if (filter.isDefined) filterCols else Set.empty[String]) ++
      (if (heap == null) None else topK.map(_.orderCol))
    val probes = probeCols.iterator.map(c => c -> decode(c, null)).toMap
    val sel = select(chunks.rowCount, probes, filter, heap)
    val n = if (sel == null) chunks.rowCount else sel.length
    if (n == 0) {
      probes.values.foreach(_.close())
      return None
    }
    // Every row selected: emit the decoded vectors as they are; else
    // decode compacted copies of the selected rows.
    val out = required.fieldNames.map { c =>
      if (sel == null) probes.getOrElse(c, decode(c, null)) else decode(c, sel)
    }
    stats.foreach(_.rowsEmitted.addAndGet(n))
    Some((new ColumnarBatch(out, n), (probes.values.toSeq ++ out).distinct))
  }

  /** The rows that pass `filter` and, under a top-k boundary, may still
    * reach the top-k, in ascending order; null when that is every row. The
    * filter is bound once to the probe vectors as typed columns; a non-NULL
    * order value is offered to the boundary, and a NULL one, which sorts
    * last, is out once the boundary is active.
    */
  private def select(rows: Int, probes: Map[String, ColumnVector], filter: Option[PExpr],
                     heap: BoundaryHeap): Array[Int] = {
    if (filter.isEmpty && heap == null) return null
    val typed = probes.map { case (c, v) => c -> MptReaderFactory.columnVec(v, fullSchema(c).dataType, rows) }
    val cols = new Columns {
      def rowCount: Int = rows
      def column(name: String): ColumnVec = typed.getOrElse(name, null)
    }
    val pred = filter.map(RowEval.bind(_, cols)).orNull
    val order = if (heap == null) null else typed(topK.get.orderCol)
    val sel = new Array[Int](rows)
    var n = 0
    var r = 0
    while (r < rows) {
      if ((pred == null || pred.passes(r)) &&
          (order == null || (if (order.isNull(r)) heap.boundary == null else heap.offer(order, r, 0L))))
        { sel(n) = r; n += 1 }
      r += 1
    }
    if (n == rows) null else java.util.Arrays.copyOf(sel, n)
  }
}

object MptReaderFactory {
  /** `n` rows of a decoded vector as a typed column, as the zone maps see
    * them: ints widen to longs and dates are epoch days; an all-NULL vector
    * is boxed, as [[ColumnVec.of]] gives it.
    */
  private[mpt] def columnVec(v: ColumnVector, dt: DataType, n: Int): ColumnVec = {
    val nulls = if (v.hasNull) Array.tabulate(n)(v.isNullAt) else null
    dt match {
      case _ if v.numNulls == n => new ColumnVec.Scalars(new Array[Scalar](n))
      case LongType    => new ColumnVec.Longs(v.getLongs(0, n), nulls)
      case IntegerType => new ColumnVec.Longs(v.getInts(0, n).map(_.toLong), nulls)
      case DateType    => new ColumnVec.Dates(v.getInts(0, n), nulls)
      case DoubleType  => new ColumnVec.Doubles(v.getDoubles(0, n), nulls)
      case BooleanType => new ColumnVec.Bools(v.getBooleans(0, n), nulls)
      case StringType  => new ColumnVec.Strings(Array.tabulate(n)(i => if (v.isNullAt(i)) null else v.getUTF8String(i).toString))
      case other       => throw new IllegalArgumentException(s"unsupported: $other")
    }
  }
}
