package perfbench

import java.util.{Map => JMap}
import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.{SortOrder, Transform}
import org.apache.spark.sql.connector.metric.{CustomMetric, CustomTaskMetric}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.Filter
import org.apache.spark.sql.types.StructType
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.sql.vectorized.ColumnarBatch

import repro.mpt.MptTableProvider

/** The `mpt` DataSource V2 provider with a span around every call Spark
  * makes into it. Each wrapper implements exactly the interfaces of the
  * object it wraps and delegates, so Spark plans and pushes down the same
  * way; the traced run loads tables through this provider and the untraced
  * run through `repro.mpt.MptTableProvider` itself.
  *
  * The filters, LIMIT and top-N that Spark pushes are kept per table
  * directory, so the traced run can replay them through the `core` pruners.
  */
class TracedMptProvider extends TableProvider {
  private val inner = new MptTableProvider

  override def supportsExternalMetadata(): Boolean = inner.supportsExternalMetadata()

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    Trace.span("mpt.provider.inferSchema")(inner.inferSchema(options))

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: JMap[String, String]): Table = {
    val t = Trace.span("mpt.provider.getTable")(inner.getTable(schema, partitioning, properties))
    new TracedTable(t.asInstanceOf[Table with SupportsRead], properties.get("path"))
  }
}

object TracedMptProvider {
  /** What Spark pushed into the most recent scan of a table directory. */
  final case class Pushed(filters: Seq[Filter], limit: Option[Int], topN: Option[(SortOrder, Int)])

  val pushed = new ConcurrentHashMap[String, Pushed]()
}

final class TracedTable(inner: Table with SupportsRead, dir: String) extends Table with SupportsRead {
  override def name(): String = inner.name()
  override def schema(): StructType = inner.schema()
  override def capabilities(): java.util.Set[TableCapability] = inner.capabilities()
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder = {
    val b = Trace.span("mpt.table.newScanBuilder", dir)(inner.newScanBuilder(options))
    TracedMptProvider.pushed.put(dir, TracedMptProvider.Pushed(Nil, None, None))
    new TracedScanBuilder(b.asInstanceOf[ScanBuilder with SupportsPushDownFilters
      with SupportsPushDownRequiredColumns with SupportsPushDownLimit with SupportsPushDownTopN], dir)
  }
}

final class TracedScanBuilder(
    inner: ScanBuilder with SupportsPushDownFilters with SupportsPushDownRequiredColumns
      with SupportsPushDownLimit with SupportsPushDownTopN,
    dir: String)
  extends ScanBuilder
    with SupportsPushDownFilters
    with SupportsPushDownRequiredColumns
    with SupportsPushDownLimit
    with SupportsPushDownTopN {

  private def note(f: TracedMptProvider.Pushed => TracedMptProvider.Pushed): Unit =
    TracedMptProvider.pushed.computeIfPresent(dir, (_, p) => f(p))

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    note(_.copy(filters = filters.toSeq))
    Trace.span("mpt.scan_builder.pushFilters", dir)(inner.pushFilters(filters))
  }
  override def pushedFilters(): Array[Filter] = inner.pushedFilters()
  override def isPartiallyPushed(): Boolean = inner.isPartiallyPushed()
  override def pushLimit(limit: Int): Boolean = {
    note(_.copy(limit = Some(limit)))
    Trace.span("mpt.scan_builder.pushLimit", dir)(inner.pushLimit(limit))
  }
  override def pushTopN(orders: Array[SortOrder], limit: Int): Boolean = {
    val ok = Trace.span("mpt.scan_builder.pushTopN", dir)(inner.pushTopN(orders, limit))
    if (ok) note(_.copy(topN = Some((orders(0), limit))))
    ok
  }
  override def pruneColumns(requiredSchema: StructType): Unit =
    Trace.span("mpt.scan_builder.pruneColumns", dir)(inner.pruneColumns(requiredSchema))
  override def build(): Scan = {
    val s = Trace.span("mpt.scan_builder.build", dir)(inner.build())
    new TracedScan(s, s.toBatch, dir)
  }
}

final class TracedScan(inner: Scan, batch: Batch, dir: String) extends Scan with Batch {
  override def readSchema(): StructType = inner.readSchema()
  override def description(): String = inner.description()
  override def toBatch: Batch = this
  override def columnarSupportMode(): Scan.ColumnarSupportMode = inner.columnarSupportMode()
  override def supportedCustomMetrics(): Array[CustomMetric] = inner.supportedCustomMetrics()
  override def reportDriverMetrics(): Array[CustomTaskMetric] = inner.reportDriverMetrics()
  override def planInputPartitions(): Array[InputPartition] =
    Trace.span("mpt.scan.planInputPartitions", dir)(batch.planInputPartitions())
  override def createReaderFactory(): PartitionReaderFactory =
    new TracedReaderFactory(Trace.span("mpt.scan.createReaderFactory", dir)(batch.createReaderFactory()), dir)
}

/** One `mpt.reader.read` span per partition reader: its interval runs from
  * `createReader` to `close`, which includes Spark consuming the rows on the
  * same task thread; its busy time counts only the time inside the reader.
  */
final class TracedReaderFactory(inner: PartitionReaderFactory, dir: String) extends PartitionReaderFactory {
  override def supportColumnarReads(partition: InputPartition): Boolean =
    inner.supportColumnarReads(partition)

  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    traced(inner.createReader(partition))

  override def createColumnarReader(partition: InputPartition): PartitionReader[ColumnarBatch] =
    traced(inner.createColumnarReader(partition))

  private def traced[T](open: => PartitionReader[T]): PartitionReader[T] = {
    val t0 = System.nanoTime()
    val r = open
    val opened = System.nanoTime() - t0
    new PartitionReader[T] {
      private var busy = opened
      override def next(): Boolean = {
        val s = System.nanoTime()
        val more = r.next()
        busy += System.nanoTime() - s
        more
      }
      override def get(): T = r.get()
      override def currentMetricsValues(): Array[CustomTaskMetric] = r.currentMetricsValues()
      override def close(): Unit = {
        val s = System.nanoTime()
        r.close()
        val e = System.nanoTime()
        Trace.record("mpt.reader.read", t0, e, busy + (e - s), dir)
      }
    }
  }
}
