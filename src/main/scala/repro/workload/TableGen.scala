package repro.workload

import repro.core.ColumnVec.{Dates, Doubles, Longs, Strings}
import repro.sim.MemTable

/** Synthetic "customer" tables for the workload experiments.
  *
  * Schema (all tables): id (long, unique), v (long, uniform value column),
  * d (double), s (string from a vocabulary), dt (date), g (long group key).
  *
  * Two axes drive pruning behaviour, matching the paper's emphasis (§1, §5.3):
  *  - partition count (most real tables are small — a large share of scans
  *    are single-partition, feeding Table 2's "already minimal" row);
  *  - physical layout of the predicate/order column (sorted / clustered /
  *    random), which decides zone-map effectiveness.
  */
object TableGen {
  val vocab: Vector[String] =
    Vector("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")

  final case class TableSpec(name: String, partitions: Int, rowsPerPartition: Int,
                             layout: MemTable.Layout)

  /** The rows of `spec`, drawn row by row (v, d, s, dt, g) straight into
    * typed columns; `id` is the row number.
    */
  def build(spec: TableSpec, seed: Long): MemTable = {
    val n = spec.partitions * spec.rowsPerPartition
    val rnd = new scala.util.Random(seed)
    val id, v, g = new Array[Long](n)
    val d = new Array[Double](n)
    val s = new Array[String](n)
    val dt = new Array[Int](n)
    var i = 0
    while (i < n) {
      id(i) = i.toLong
      v(i) = rnd.nextInt(1000000).toLong
      d(i) = rnd.nextDouble() * 1000
      s(i) = vocab(rnd.nextInt(vocab.size))
      dt(i) = 9131 + rnd.nextInt(2557) // 1995-01-01 .. ~2001-12
      g(i) = rnd.nextInt(100).toLong
      i += 1
    }
    MemTable.build(spec.name, IndexedSeq("id", "v", "d", "s", "dt", "g"),
                   IndexedSeq(new Longs(id, null), new Longs(v, null), new Doubles(d, null),
                              new Strings(s), new Dates(dt, null), new Longs(g, null)),
                   n, spec.partitions, spec.layout)
  }

  /** A catalog mixing table sizes and layouts with realistic skew: many
    * small tables, few large ones; layout distribution over the `v` column
    * (the workload's main predicate/order column).
    */
  def catalog(nTables: Int, seed: Long): Vector[MemTable] = {
    val rnd = new scala.util.Random(seed)
    (0 until nTables).map { i =>
      val partitions = rnd.nextDouble() match {
        case p if p < 0.43 => 1
        case p if p < 0.58 => 2 + rnd.nextInt(3)     // 2..4
        case p if p < 0.78 => 5 + rnd.nextInt(11)    // 5..15
        case p if p < 0.93 => 16 + rnd.nextInt(25)   // 16..40
        case p if p < 0.98 => 41 + rnd.nextInt(60)   // 41..100
        case _             => 150 + rnd.nextInt(251) // 150..400 ("petabyte" tier)
      }
      // Big tables are clustered in practice (auto-clustering pays off
      // exactly there); only small/medium tables show random layouts.
      val layout = rnd.nextDouble() match {
        case p if p < 0.45               => MemTable.Layout.Sorted("v")
        case p if p < 0.90 || partitions > 40 =>
          MemTable.Layout.Clustered("v", 0.01 + rnd.nextDouble() * 0.04, seed + i)
        case _                           => MemTable.Layout.Random(seed + i)
      }
      build(TableSpec(s"t$i", partitions, 256, layout), seed + 1000 + i)
    }.toVector
  }
}
