package repro.mpt

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import repro.meta.Scalar

/** JVM-global top-k boundary state shared between the planner and the scan
  * tasks of one query (§5.2).
  *
  * In Snowflake the boundary value is passed from the TopK operator to the
  * table scan through the execution engine; in `local[*]` mode every Spark
  * task runs in the driver JVM, so a process-global registry keyed by scan id
  * provides the same information channel. In a distributed deployment this
  * would be a small broadcast/RPC — the pruning decisions are identical.
  */
object BoundaryRegistry {

  private val ids = new AtomicLong(0L)
  private val states = new ConcurrentHashMap[Long, State]()

  /** A fresh scan id. Every scan takes one, with or without top-k; its
    * [[ScanMetrics]] and, under top-k, its boundary state share it.
    */
  def newScanId(): Long = ids.incrementAndGet()

  /** A scan id with a fresh boundary state for a top-k of `k`. */
  def create(k: Int, desc: Boolean, initBoundary: Option[Scalar]): Long = {
    val id = newScanId()
    states.put(id, new State(k, desc, initBoundary.orNull))
    id
  }

  def get(id: Long): Option[State] = Option(states.get(id))
  def remove(id: Long): Unit = states.remove(id)

  /** Thread-safe boundary state: a bounded heap of the best k order values
    * seen so far plus the currently active boundary (null = inactive).
    * The boundary is only active when it is *proven* that k qualifying rows
    * at or above it exist: either the heap is full, or an upfront boundary
    * (§5.4) was derived from fully-matching partitions at plan time.
    */
  final class State(val k: Int, val desc: Boolean, init: Scalar) {
    // Min-heap in "goodness": head is the worst kept value.
    private val heap = scala.collection.mutable.PriorityQueue.empty[Scalar](
      (a: Scalar, b: Scalar) => {
        val c = Scalar.compare(a, b).getOrElse(0)
        if (desc) -c else c // head = worst
      })
    @volatile private var boundaryValue: Scalar = init

    /** a strictly better than b in query order. */
    private def strictlyBetter(a: Scalar, b: Scalar): Boolean =
      Scalar.compare(a, b).exists(c => if (desc) c > 0 else c < 0)

    def boundary: Option[Scalar] = Option(boundaryValue)

    /** Record a qualifying non-null order value from any scan task. */
    def observe(v: Scalar): Unit = synchronized {
      // Rows strictly below an upfront boundary can never reach the top-k.
      if (init != null && strictlyBetter(init, v)) return
      heap.enqueue(v)
      if (heap.size > k) heap.dequeue()
      if (heap.size >= k) {
        val hb = heap.head
        val b = boundaryValue
        boundaryValue = if (b == null || strictlyBetter(hb, b)) hb else b
      }
    }

    /** May a partition whose best possible order value is `best` (None =
      * all-null order column) still contribute to the top-k?
      */
    def shouldSkipPartition(best: Option[Scalar]): Boolean = {
      val b = boundaryValue
      b != null && best.forall(v => strictlyBetter(b, v))
    }

    /** May an individual row with this order value still reach the top-k?
      * (None = null order value; with an active boundary and NULLS LAST
      * semantics it cannot.)
      */
    def shouldSuppressRow(v: Option[Scalar]): Boolean = {
      val b = boundaryValue
      b != null && v.forall(x => strictlyBetter(b, x))
    }
  }
}
