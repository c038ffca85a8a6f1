package repro.sim

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper.forAllSeeded
import repro.TestTables
import repro.core.{ColumnVec, IndexSort}
import repro.meta.Scalar
import repro.workload.TableGen

/** The column-first catalog build equals the boxed row build it replaced:
  * [[IndexSort]] equals a boxed TimSort, `MemTable.build` over columns
  * equals arranging boxed rows and cutting them with `MemPartition.of`, and
  * `TableGen.build` equals its row-by-row boxed generator.
  */
class ColumnFirstBuildSpec extends AnyFunSuite {

  import Scalar._

  // ---- the index sort --------------------------------------------------------

  test("property: the index sort equals a boxed TimSort, ties dominating") {
    // Sizes cross the insertion-sort cut-off; sorted keys take the merge's
    // copy of halves already in order.
    val gen = for {
      n <- Gen.frequency(3 -> Gen.choose(0, 40), 2 -> Gen.choose(41, 400), 1 -> Gen.choose(401, 3000))
      domain <- Gen.oneOf(1, 2, 3, 7, 50)
      shape <- Gen.oneOf("random", "ascending", "descending")
      seed <- Gen.long
    } yield {
      val rnd = new scala.util.Random(seed)
      val raw = Array.fill(n)(rnd.nextInt(domain))
      shape match {
        case "random"    => raw
        case "ascending" => raw.sorted
        case _           => raw.sorted.reverse
      }
    }
    forAllSeeded(gen, n = 400) { keys =>
      val cmp: (Int, Int) => Int = (x, y) => Integer.compare(keys(x), keys(y))
      val boxed = Array.tabulate[Integer](keys.length)(Integer.valueOf)
      java.util.Arrays.sort(boxed, (x: Integer, y: Integer) => cmp(x, y))
      assert(IndexSort.range(keys.length, cmp).toSeq == boxed.toSeq.map(_.intValue))
    }
  }

  // ---- MemTable.build --------------------------------------------------------

  /** The boxed row build that the column-first build replaced, verbatim but
    * for the partition constructor: rows arranged by a TimSort of boxed
    * positions, then cut into chunks and typed per chunk by `MemPartition.of`.
    */
  private def boxedBuild(schema: IndexedSeq[String], rows: IndexedSeq[Array[Scalar]],
                         numPartitions: Int, layout: MemTable.Layout): Vector[MemPartition] = {
    def stableSort(n: Int, cmp: (Int, Int) => Int): Array[Int] = {
      val order = Array.tabulate[Integer](n)(Integer.valueOf)
      java.util.Arrays.sort(order, (x: Integer, y: Integer) => cmp(x, y))
      order.map(_.intValue)
    }
    val colIdx = schema.zipWithIndex.toMap
    def sortedBy(col: String): Array[Int] = {
      val i = colIdx(col)
      val c = ColumnVec.of(rows.iterator.map(_(i)).toArray)
      stableSort(rows.size, (x, y) =>
        if (c.isNull(x)) { if (c.isNull(y)) 0 else -1 }
        else if (c.isNull(y)) 1
        else {
          val r = c.compareRows(x, y)
          if (r == ColumnVec.NC) 0 else r
        })
    }
    val arranged: Array[Int] = layout match {
      case MemTable.Layout.Sorted(col) => sortedBy(col)
      case MemTable.Layout.Clustered(col, jitter, seed) =>
        val sorted = sortedBy(col)
        val rnd = new scala.util.Random(seed)
        val n = sorted.length
        val noisy = Array.tabulate(n)(pos => pos + (rnd.nextGaussian() * jitter * n))
        stableSort(n, (x, y) => java.lang.Double.compare(noisy(x), noisy(y))).map(sorted)
      case MemTable.Layout.Random(seed) =>
        new scala.util.Random(seed).shuffle(Vector.range(0, rows.size)).toArray
    }
    val n = math.max(1, numPartitions)
    val per = math.max(1, (arranged.length + n - 1) / n)
    arranged.grouped(per).zipWithIndex.map { case (chunk, i) =>
      MemPartition.of(i, schema, chunk.map(rows))
    }.toVector
  }

  private def canon(s: Scalar): Any = s match {
    case DoubleV(d) => ("double", java.lang.Double.doubleToRawLongBits(d))
    case other      => other
  }

  /** A column's family, its null flags (None when it has none) and its
    * stored values, doubles by their bits.
    */
  private def cells(c: ColumnVec): (String, Option[Seq[Boolean]], Seq[Any]) = c match {
    case l: ColumnVec.Longs   => ("long", Option(l.nulls).map(_.toSeq), l.values.toSeq)
    case d: ColumnVec.Dates   => ("date", Option(d.nulls).map(_.toSeq), d.days.toSeq)
    case d: ColumnVec.Doubles => ("double", Option(d.nulls).map(_.toSeq), d.values.toSeq.map(java.lang.Double.doubleToRawLongBits))
    case s: ColumnVec.Strings => ("string", None, s.values.toSeq)
    case b: ColumnVec.Bools   => ("bool", Option(b.nulls).map(_.toSeq), b.values.toSeq)
    case s: ColumnVec.Scalars => ("scalars", None, s.values.toSeq.map(v => if (v == null) null else canon(v)))
  }

  private def assertSameTable(got: MemTable, want: Vector[MemPartition], clue: String): Unit = {
    assert(got.numPartitions == want.size, clue)
    got.partitions.zip(want).foreach { case (g, w) =>
      assert(g.id == w.id && g.rowCount == w.rowCount && g.schema == w.schema, clue)
      g.schema.foreach(n => assert(cells(g.column(n)) == cells(w.column(n)), s"$clue: partition ${g.id}, column $n"))
      assert(g.meta == w.meta, s"$clue: partition ${g.id}")
    }
  }

  /** [[TestTables.rows]] plus `m`: longs with a double every 7th row and a
    * NULL every 11th, so that some partitions' slices are one family and
    * others mix.
    */
  private def mixedRows(n: Int, seed: Long, nullEvery: Int): IndexedSeq[Array[Scalar]] =
    TestTables.rows(n, seed, nullEvery).zipWithIndex.map { case (row, i) =>
      val m: Scalar = if (i % 11 == 5) null else if (i % 7 == 3) DoubleV(i / 4.0) else LongV((i * 37L) % 101)
      row :+ m
    }

  private val layouts: Seq[MemTable.Layout] = Seq(
    MemTable.Layout.Sorted("v"), MemTable.Layout.Sorted("m"), MemTable.Layout.Sorted("s"),
    MemTable.Layout.Clustered("v", 0.03, 11), MemTable.Layout.Clustered("m", 0.2, 12),
    MemTable.Layout.Random(13))

  for (layout <- layouts) {
    test(s"column-first MemTable.build equals the boxed build ($layout)") {
      val schema = TestTables.schema :+ "m"
      for ((n, parts) <- Seq((0, 3), (1, 1), (17, 3), (300, 1), (1000, 10), (1001, 8)); nullEvery <- Seq(0, 3, 17)) {
        val rows = mixedRows(n, seed = n + 7L, nullEvery)
        assertSameTable(MemTable.build("t", schema, rows, parts, layout), boxedBuild(schema, rows, parts, layout),
                        s"n=$n parts=$parts nullEvery=$nullEvery")
      }
    }
  }

  test("slices take the narrowest family, with null flags only where they hold a NULL") {
    // Sorted by v with a NULL every 4th row: the 23 NULLs come first, so the
    // first partition holds only NULLs, the second some, the rest none.
    val t = MemTable.build("t", TestTables.schema, TestTables.rows(90, 1, nullEvery = 4), 6, MemTable.Layout.Sorted("v"))
    val v = t.partitions.map(_.column("v"))
    assert(v.head.isInstanceOf[ColumnVec.Scalars])
    assert(v(1).asInstanceOf[ColumnVec.Longs].nulls.count(identity) == 8)
    assert(v.drop(2).forall(_.asInstanceOf[ColumnVec.Longs].nulls == null))
    val mixed = TestTables.rows(30).zipWithIndex.map { case (row, i) => row :+ (if (i == 0) DoubleV(0.5) else LongV(i.toLong)) }
    val m = MemTable.build("t", TestTables.schema :+ "m", mixed, 3, MemTable.Layout.Sorted("id")).partitions.map(_.column("m"))
    assert(m.head.isInstanceOf[ColumnVec.Scalars] && m.tail.forall(_.isInstanceOf[ColumnVec.Longs]))
  }

  // ---- TableGen.build --------------------------------------------------------

  /** The row-by-row boxed generator that `TableGen.build` replaced. */
  private def boxedTableGen(spec: TableGen.TableSpec, seed: Long): Vector[MemPartition] = {
    val n = spec.partitions * spec.rowsPerPartition
    val rnd = new scala.util.Random(seed)
    val rows = (0 until n).map { i =>
      Array[Scalar](
        LongV(i.toLong),
        LongV(rnd.nextInt(1000000).toLong),
        DoubleV(rnd.nextDouble() * 1000),
        StringV(TableGen.vocab(rnd.nextInt(TableGen.vocab.size))),
        DateV(9131 + rnd.nextInt(2557)),
        LongV(rnd.nextInt(100).toLong))
    }
    boxedBuild(IndexedSeq("id", "v", "d", "s", "dt", "g"), rows, spec.partitions, spec.layout)
  }

  test("TableGen.build equals the boxed row generator") {
    val specs = Seq(
      TableGen.TableSpec("a", 1, 256, MemTable.Layout.Sorted("v")),
      TableGen.TableSpec("b", 7, 256, MemTable.Layout.Clustered("v", 0.03, 5)),
      TableGen.TableSpec("c", 5, 256, MemTable.Layout.Random(6)),
      TableGen.TableSpec("d", 40, 256, MemTable.Layout.Sorted("v")),
      TableGen.TableSpec("e", 3, 100, MemTable.Layout.Clustered("dt", 0.05, 9)))
    specs.zipWithIndex.foreach { case (spec, i) =>
      assertSameTable(TableGen.build(spec, 100L + i), boxedTableGen(spec, 100L + i), spec.toString)
    }
  }
}
