package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

/** In-memory span recorder for the traced run.
  *
  * A span is named `<layer>.<operation>`; the layer is one of the repo's
  * modules (`mpt`, `core`, `sim`, `workload`, `meta`) or `spark` for the
  * engine around them. Spans are recorded only in the benchmark's own code,
  * around calls into a layer's public functions. The parent of a span is the
  * innermost open span of the same thread, or else the current query span,
  * so that reader spans on Spark's task threads hang under their query.
  * Spans stay in memory and are written out once, when the run ends.
  */
object Trace {
  /** `tag` names the object a call was made on, such as a table directory. */
  final case class Span(id: Long, parent: Long, name: String, start: Long, end: Long,
                        query: Long, busyNs: Long, tag: String) {
    def ns: Long = end - start
  }

  @volatile var enabled: Boolean = false
  @volatile private var querySpan: Long = 0L
  @volatile private var queryId: Long = -1L

  private val ids = new AtomicLong(0L)
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val open = new ThreadLocal[List[Long]] {
    override def initialValue(): List[Long] = Nil
  }

  def all: Seq[Span] = { val b = Vector.newBuilder[Span]; spans.forEach(b += _); b.result() }

  private def parentId: Long = open.get() match {
    case p :: _ => p
    case Nil    => querySpan
  }

  /** Run `body` inside a span; a no-op wrapper when tracing is off. */
  def span[T](name: String, tag: String = "")(body: => T): T =
    if (!enabled) body
    else {
      val id = ids.incrementAndGet()
      val parent = parentId
      open.set(id :: open.get())
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open.set(open.get().tail)
        spans.add(Span(id, parent, name, t0, t1, queryId, t1 - t0, tag))
      }
    }

  /** The root span of one query execution; spans opened on any thread while
    * it runs, outside another span, become its children.
    */
  def query[T](id: Long, name: String = "spark.query")(body: => T): T =
    if (!enabled) body
    else {
      val sid = ids.incrementAndGet()
      queryId = id
      querySpan = sid
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        spans.add(Span(sid, 0L, name, t0, t1, id, t1 - t0, ""))
        querySpan = 0L
        queryId = -1L
      }
    }

  /** A span whose interval and busy time are measured by the caller, e.g. a
    * partition reader open from `createReader` to `close` but busy only
    * inside `next`.
    */
  def record(name: String, start: Long, end: Long, busyNs: Long, tag: String = ""): Unit =
    if (enabled) spans.add(Span(ids.incrementAndGet(), parentId, name, start, end, queryId, busyNs, tag))

  /** Tab-separated, one span a line: id parent name start end query busy. */
  def write(path: java.nio.file.Path): Unit = {
    val out = java.nio.file.Files.newBufferedWriter(path)
    try spans.forEach { s =>
      out.write(s"${s.id}\t${s.parent}\t${s.name}\t${s.start}\t${s.end}\t${s.query}\t${s.busyNs}\n")
    } finally out.close()
  }
}
