package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.meta.Scalar

class BoundaryHeapSpec extends AnyFunSuite {
  import Scalar._

  test("boundary activates only when the heap fills (no upfront init)") {
    val st = new BoundaryHeap(3, desc = true, null)
    st.observe(LongV(10), 0L); st.observe(LongV(20), 0L)
    assert(st.boundary == null)
    assert(!st.shouldSkip(LongV(1)))
    st.observe(LongV(30), 0L)
    assert(st.boundary == LongV(10))
    assert(st.shouldSkip(LongV(9)))
    assert(!st.shouldSkip(LongV(10))) // ties are kept
  }

  test("boundary tightens monotonically") {
    val st = new BoundaryHeap(2, desc = true, null)
    Seq(1L, 2L, 3L, 4L, 5L).foreach(v => st.observe(LongV(v), 0L))
    assert(st.boundary == LongV(4))
    st.observe(LongV(0), 0L) // worse value cannot loosen the boundary
    assert(st.boundary == LongV(4))
  }

  test("upfront init activates the boundary immediately") {
    val st = new BoundaryHeap(5, desc = true, LongV(100))
    assert(st.shouldSkip(LongV(99)))
    assert(!st.shouldSkip(LongV(100)))
    // Rows below the init never enter the heap and never loosen it.
    Seq(1L, 2L, 3L, 4L, 5L).foreach(v => st.observe(LongV(v), 0L))
    assert(st.boundary == LongV(100))
  }

  test("ASC ordering flips the comparison direction") {
    val st = new BoundaryHeap(2, desc = false, null)
    Seq(10L, 20L, 30L).foreach(v => st.observe(LongV(v), 0L))
    assert(st.boundary == LongV(20))
    assert(st.shouldSkip(LongV(21))) // min 21 > boundary 20: skip
    assert(!st.shouldSkip(LongV(19)))
  }

  test("all-null partitions are skippable once a boundary exists") {
    val st = new BoundaryHeap(1, desc = true, null)
    assert(!st.shouldSkip(null)) // no boundary yet: must scan
    st.observe(LongV(5), 0L)
    assert(st.shouldSkip(null)) // NULLS LAST cannot displace
    assert(!st.offer(ColumnVec.of(Array[Scalar](LongV(4))), 0, 0L)) // a row below the boundary is out
  }

  test("concurrent observers agree on the final boundary") {
    val st = new BoundaryHeap(10, desc = true, null)
    val threads = (0 until 8).map { t =>
      new Thread(() => (0 until 1000).foreach(i => st.observe(LongV((t * 1000 + i).toLong), 0L)))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    // 8000 values 0..7999, k=10 → boundary = 7990.
    assert(st.boundary == LongV(7990))
  }

  test("k = 0 admits nothing and never activates without an init") {
    val st = new BoundaryHeap(0, desc = true, null)
    Seq(3L, 1L, 2L).foreach(v => st.observe(LongV(v), 0L))
    assert(st.boundary == null)
    assert(!st.shouldSkip(LongV(0)))
    assert(st.drain((v, _) => v).isEmpty)
  }

  test("an incomparable value is admitted and prunes nothing") {
    val st = new BoundaryHeap(1, desc = true, LongV(5))
    assert(!st.shouldSkip(StringV("a")))
    assert(st.offer(ColumnVec.of(Array[Scalar](StringV("a"))), 0, 7L))
    st.observe(StringV("a"), 7L)
    assert(st.boundary == LongV(5))
    assert(st.drain((v, tag) => (v, tag)) == Vector((StringV("a"), 7L)))
  }

  // ---- property: the heap against a sort of the stream ----------------------

  // Small domains, so that ties are common.
  private val families: Seq[(String, Gen[Scalar])] = Seq(
    "long" -> Gen.choose(-4L, 4L).map(LongV(_)),
    "double" -> Gen.oneOf(Gen.choose(-4, 4).map(d => DoubleV(d / 2.0)),
                          Gen.oneOf(-0.0, 0.0, Double.NaN).map(DoubleV(_))),
    "string" -> Gen.oneOf("", "a", "ab", "b", "\uFFFF", "\uD83D\uDE00").map(StringV(_)))

  private def same(a: Scalar, b: Scalar): Boolean =
    if (a == null || b == null) a == b else Scalar.compare(a, b).contains(0)

  for ((family, values) <- families; desc <- Seq(true, false)) {
    test(s"property: boundary and drain equal a sort of the stream ($family, desc=$desc)") {
      val gen = for {
        n <- Gen.choose(0, 30)
        stream <- Gen.listOfN(n, values)
        init <- Gen.option(values)
        k <- Gen.choose(0, n + 3)
      } yield (stream.toVector, init.orNull, k)
      forAllSeeded(gen, n = 300) { case (stream, init, k) =>
        // Best first: descending for DESC, ascending for ASC.
        def better(a: Scalar, b: Scalar) = Scalar.compare(a, b).exists(c => if (desc) c > 0 else c < 0)
        val admitted = stream.filter(v => init == null || !better(init, v))
        val want = admitted.sortWith(better).take(k)
        val heap = new BoundaryHeap(k, desc, init)
        stream.zipWithIndex.foreach { case (v, i) => heap.observe(v, i.toLong) }

        val kth = if (k > 0 && want.size == k) want(k - 1) else null
        val wantBoundary = if (kth == null) init else kth // kth is never worse than init
        assert(same(heap.boundary, wantBoundary), s"stream=$stream init=$init k=$k got ${heap.boundary}")

        val got = heap.drain((v, tag) => (v, tag))
        assert(got.size == want.size, s"stream=$stream init=$init k=$k got $got")
        got.zip(want).foreach { case ((v, tag), w) =>
          assert(same(v, w), s"stream=$stream init=$init k=$k got $got")
          assert(stream(tag.toInt) eq v, "a value comes back with its own tag")
        }
      }
    }
  }
}
