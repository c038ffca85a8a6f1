package repro.core

/** A stable sort of row positions by a comparator over positions, on
  * primitive arrays: no boxed `Integer`s, and the comparator is called
  * through `Function2`'s `(Int, Int) => Int` specialisation. It arranges a
  * simulator table's rows by its layout column.
  *
  * A top-down merge sort with insertion sort below a cut-off; two halves
  * already in order are copied without merging. For any comparator that is
  * a total preorder, its result equals every other stable sort's,
  * `java.util.Arrays.sort` over boxed positions included.
  */
object IndexSort {

  /** Runs shorter than this are insertion-sorted. */
  private final val InsertionCutoff = 16

  /** `0 until n` in a stable sort by `cmp`. */
  def range(n: Int, cmp: (Int, Int) => Int): Array[Int] = {
    val out = Array.range(0, n)
    if (n > 1) mergeSort(out.clone(), out, 0, n, cmp)
    out
  }

  /** Sort `dst(lo until hi)`; `src` holds the same positions on entry and is
    * scratch. Each level merges the halves the level below sorted into `src`.
    */
  private def mergeSort(src: Array[Int], dst: Array[Int], lo: Int, hi: Int, cmp: (Int, Int) => Int): Unit = {
    if (hi - lo < InsertionCutoff) {
      var i = lo + 1
      while (i < hi) {
        val x = dst(i)
        var j = i
        while (j > lo && cmp(dst(j - 1), x) > 0) { dst(j) = dst(j - 1); j -= 1 }
        dst(j) = x
        i += 1
      }
    } else {
      val mid = (lo + hi) >>> 1
      mergeSort(dst, src, lo, mid, cmp)
      mergeSort(dst, src, mid, hi, cmp)
      if (cmp(src(mid - 1), src(mid)) <= 0) System.arraycopy(src, lo, dst, lo, hi - lo)
      else {
        var p = lo
        var q = mid
        var i = lo
        while (i < hi) {
          // Ties take the left run's position first: the sort is stable.
          if (q >= hi || p < mid && cmp(src(p), src(q)) <= 0) { dst(i) = src(p); p += 1 }
          else { dst(i) = src(q); q += 1 }
          i += 1
        }
      }
    }
  }
}
