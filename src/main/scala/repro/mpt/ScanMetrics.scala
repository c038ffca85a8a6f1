package repro.mpt

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import repro.core.BoundaryHeap

/** The state one mpt scan shares between its planner and its readers, by
  * scan id: how many micro-partitions each pruning technique removed, what
  * the readers actually did at runtime, and, under top-k, the boundary heap
  * that the readers tighten (§5.2).
  *
  * In Snowflake the boundary value is passed from the TopK operator to the
  * table scan through the execution engine; in `local[*]` mode every Spark
  * task runs in the driver JVM, so a process-global map keyed by scan id
  * provides the same information channel. In a distributed deployment this
  * would be a small broadcast/RPC — the pruning decisions are identical.
  * `forTable` returns the most recent scan of a table directory, which is
  * what tests and benches assert against.
  */
object ScanMetrics {

  /** `heap` is the scan's top-k boundary heap; null without top-k. */
  final class Stats(val tableDir: String, val heap: BoundaryHeap = null) {
    /** Partitions in the manifest. */
    @volatile var totalPartitions: Int = 0
    /** After compile-time filter pruning (§3). */
    @volatile var afterFilterPruning: Int = 0
    /** After LIMIT pruning (§4); equal to afterFilterPruning when inapplicable. */
    @volatile var afterLimitPruning: Int = 0
    /** After static top-k pruning via the upfront boundary (§5.4). */
    @volatile var afterTopKStatic: Int = 0
    /** Fully-matching partitions identified by the inverted pass (§4.2). */
    @volatile var fullyMatching: Int = 0
    @volatile var limitOutcome: String = ""
    /** Partitions skipped by the runtime boundary (readers, §5.2). */
    val runtimeSkipped = new AtomicInteger(0)
    /** Partition files actually opened by readers. */
    val filesOpened = new AtomicInteger(0)
    val rowsEmitted = new AtomicLong(0L)

    def topKPushed: Boolean = heap != null
    def planned: Int = afterTopKStatic
    override def toString: String =
      s"Stats(total=$totalPartitions afterFilter=$afterFilterPruning " +
      s"afterLimit=$afterLimitPruning afterTopKStatic=$afterTopKStatic " +
      s"fully=$fullyMatching runtimeSkipped=${runtimeSkipped.get} " +
      s"opened=${filesOpened.get} rows=${rowsEmitted.get} limit=$limitOutcome)"
  }

  private val ids = new AtomicLong(0L)
  private val byScanId = new ConcurrentHashMap[Long, Stats]()
  private val lastForTable = new ConcurrentHashMap[String, java.lang.Long]()

  /** Registers `stats` under a fresh scan id, which it returns. */
  def register(stats: Stats): Long = {
    val scanId = ids.incrementAndGet()
    byScanId.put(scanId, stats)
    lastForTable.put(stats.tableDir, scanId)
    scanId
  }

  def forScan(scanId: Long): Option[Stats] = Option(byScanId.get(scanId))

  /** Metrics of the most recent scan planned over `dir`. */
  def forTable(dir: String): Option[Stats] =
    Option(lastForTable.get(dir)).flatMap(id => forScan(id))
}
