package repro.core

import repro.meta.Scalar

/** §5.1–§5.2 — the top-k boundary: a heap of the k best order values seen
  * so far, each with a caller's tag, whose worst value is the *boundary*. A
  * micro-partition whose best value is strictly worse than the boundary, and
  * a row whose value is, cannot reach the top k.
  *
  * The boundary is active (non-null) only once it is proven that k rows at or
  * above it exist: when the heap holds k values, or from the start when an
  * upfront boundary `init` was derived from fully-matching partitions (§5.4).
  * It only ever tightens, to the stricter of its current value and the k-th
  * best value held. NULL order values sort last: a partition without a range
  * and a NULL row count as below an active boundary. Values of another type
  * family than the boundary compare as ties: they are admitted and prune
  * nothing.
  *
  * `observe` is synchronized, so the scan tasks of one query can share a
  * heap; `boundary` is readable without the lock. Storage grows with the
  * values admitted, never to k up front: k may exceed the table many times.
  */
final class BoundaryHeap(val k: Int, val desc: Boolean, init: Scalar) {

  // A binary heap in query order: slot 0 holds the worst value kept.
  private var values = new Array[Scalar](math.max(0, math.min(k, 16)))
  private var tags = new Array[Long](values.length)
  private var size = 0
  @volatile private var current: Scalar = init
  private val sign = if (desc) 1 else -1

  /** The active boundary; null while inactive. */
  def boundary: Scalar = current

  /** Record a non-NULL order value tagged `tag`. A value strictly worse than
    * the boundary is not admitted.
    */
  def observe(value: Scalar, tag: Long): Unit = synchronized {
    if (k > 0 && !worse(value, current)) {
      if (size < k) {
        if (size == values.length) {
          values = java.util.Arrays.copyOf(values, math.min(k, 2 * size))
          tags = java.util.Arrays.copyOf(tags, values.length)
        }
        values(size) = value
        tags(size) = tag
        size += 1
        siftUp()
      } else if (worse(values(0), value)) {
        values(0) = value
        tags(0) = tag
        siftDown()
      }
      if (size == k && (current == null || worse(current, values(0)))) current = values(0)
    }
  }

  /** Can a partition whose best order value is `best` (null: it has no
    * range, e.g. an all-NULL order column) be skipped?
    */
  def shouldSkip(best: Scalar): Boolean = {
    val b = current
    b != null && (best == null || worse(best, b))
  }

  /** Offer the non-NULL row `r` of `col`, tagged `tag`: compared with the
    * boundary unboxed, it is observed unless strictly worse. True when the
    * row can still reach the top k under the boundary as it stands after.
    */
  def offer(col: ColumnVec, r: Int, tag: Long): Boolean = {
    def below = { val b = current; b != null && { val c = col.compareAt(r, b); c != ColumnVec.NC && c * sign < 0 } }
    !below && { observe(col.get(r), tag); !below }
  }

  /** The kept values best first, each with its tag at the same position;
    * the heap is empty afterwards.
    */
  def drain(): BoundaryHeap.Drained = synchronized {
    val out = new BoundaryHeap.Drained(new Array[Scalar](size), new Array[Long](size))
    while (size > 0) { // worst first, into the last free slot
      size -= 1
      out.values(size) = values(0)
      out.tags(size) = tags(0)
      values(0) = values(size)
      tags(0) = tags(size)
      values(size) = null
      siftDown()
    }
    out
  }

  /** [[drain]] as `f(value, tag)` per kept value, best first. */
  def drain[A](f: (Scalar, Long) => A): IndexedSeq[A] = {
    val d = drain()
    IndexedSeq.tabulate(d.size)(j => f(d.values(j), d.tags(j)))
  }

  /** Is `a` strictly worse than `b` in query order (false when either is
    * null or they are incomparable)?
    */
  private def worse(a: Scalar, b: Scalar): Boolean = a != null && b != null && ((a, b) match {
    case (Scalar.LongV(x), Scalar.LongV(y)) => if (desc) x < y else x > y
    case _ => Scalar.compare(a, b).exists(c => if (desc) c < 0 else c > 0)
  })

  private def swap(i: Int, j: Int): Unit = {
    val v = values(i); values(i) = values(j); values(j) = v
    val t = tags(i); tags(i) = tags(j); tags(j) = t
  }

  /** Moves the last value up to its place. */
  private def siftUp(): Unit = {
    var i = size - 1
    while (i > 0 && worse(values(i), values((i - 1) / 2))) {
      swap(i, (i - 1) / 2)
      i = (i - 1) / 2
    }
  }

  /** Moves the value in slot 0 down to its place. */
  private def siftDown(): Unit = {
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1
      val w = if (l + 1 < size && worse(values(l + 1), values(l))) l + 1 else l
      if (l < size && worse(values(w), values(i))) { swap(i, w); i = w }
      else done = true
    }
  }
}

object BoundaryHeap {
  /** Drained values, best first, and their tags: `tags(j)` is that of `values(j)`. */
  final class Drained(val values: Array[Scalar], val tags: Array[Long]) {
    def size: Int = values.length
  }
}
