package repro.mpt

import java.nio.file.Files

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit}
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.PropHelper.forAllSeeded
import repro.SparkSpec

/** The mpt DataSource V2 path against plain Spark on the same rows: random
  * predicates over every column type, read through `MptTableProvider` and
  * run over the source DataFrame, select the same rows; `LIMIT k` returns
  * min(k, n) of them; and `ORDER BY c LIMIT k` returns the same order
  * values, ties free. Pruning, the pushed filter, LIMIT and top-N pushdown
  * and the reader's runtime boundary all sit on the mpt side.
  */
class MptDifferentialSpec extends SparkSpec {
  import AdversarialRows._

  private def date(days: Int) = java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(days.toLong))

  /** The source frame and one mpt copy of it per layout. */
  private lazy val (source, dirs) = {
    val src = frame(spark, table(400).apply(Gen.Parameters.default, Seed(17)).get, 4)
    val layouts = Seq(MptWriter.Layout.Random(3), MptWriter.Layout.SortedBy("l"),
                      MptWriter.Layout.SortedBy("d"), MptWriter.Layout.SortedBy("s"))
    val ds = layouts.map { layout =>
      val d = Files.createTempDirectory("mpt-differential").toFile.getAbsolutePath
      MptWriter.write(src, d, 8, layout)
      d
    }
    (src, ds.toVector)
  }

  private val cols: Seq[(String, Gen[Any])] = Seq(
    "id" -> Gen.choose(0L, 400L), "l" -> longs, "i" -> ints, "d" -> doubles, "s" -> strings,
    "dt" -> dates.map(date), "b" -> booleans, "z" -> longs,
    "i" -> longs,   // a long literal against an int column
    "l" -> doubles, // a double literal against a long column
    "d" -> longs)   // a long literal against a double column

  /** `p` as a LIKE pattern that matches `p` literally. */
  private def escape(p: String): String = p.flatMap {
    case c @ ('\\' | '%' | '_') => s"\\$c"
    case c                      => c.toString
  }

  private val leaf: Gen[Column] = Gen.oneOf(cols).flatMap { case (c, values) =>
    val x = col(c)
    Gen.oneOf(
      values.map(v => x === lit(v)), values.map(v => x =!= lit(v)),
      values.map(v => x < lit(v)), values.map(v => x <= lit(v)),
      values.map(v => x > lit(v)), values.map(v => x >= lit(v)),
      Gen.listOfN(3, values).map(vs => x.isin(vs: _*)),
      Gen.const(x.isNull), Gen.const(x.isNotNull),
      strings.map(p => col("s").like(escape(p) + "%")))
  }

  private def predicate(depth: Int): Gen[Column] =
    if (depth == 0) leaf
    else Gen.frequency(
      3 -> leaf,
      1 -> Gen.zip(predicate(depth - 1), predicate(depth - 1)).map { case (a, b) => a && b },
      1 -> Gen.zip(predicate(depth - 1), predicate(depth - 1)).map { case (a, b) => a || b },
      1 -> predicate(depth - 1).map(!_))

  /** A column and an ORDER BY on it, in one of four direction and NULL orders. */
  private val order: Gen[(String, Column)] = for {
    c <- Gen.oneOf("id", "l", "i", "d", "s", "dt", "b", "z")
    o <- Gen.oneOf(col(c).asc, col(c).asc_nulls_last, col(c).desc, col(c).desc_nulls_first)
  } yield (c, o)

  private val cases = for {
    p <- predicate(3)
    k <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 25), 1 -> Gen.choose(300, 500))
    o <- order
    t <- Gen.choose(0, 3)
  } yield (p, k, o, t)

  private def counts(rows: Seq[Row]): Map[Seq[Any], Int] = rows.groupMapReduce(canonical)(_ => 1)(_ + _)

  /** An order value as Spark compares it: -0.0 is 0.0, and NaN is NaN. */
  private def orderKey(v: Any): Any = v match {
    case d: Double => java.lang.Double.doubleToLongBits(if (d == 0.0) 0.0 else d)
    case d: java.sql.Date => d.toLocalDate.toEpochDay
    case other => other
  }

  test("property: filters, LIMIT and ORDER BY LIMIT through the mpt provider agree with plain Spark") {
    var topKPushed = 0
    forAllSeeded(cases, n = 350) { case (p, k, (c, o), t) =>
      val dir = dirs(t)
      val mpt: DataFrame = spark.read.format("repro.mpt.MptTableProvider").load(dir)
      val clue = s"where $p, k=$k, order by $o, layout $t"

      val want = source.filter(p).collect().toSeq
      val got = mpt.filter(p).collect().toSeq
      assert(counts(got) == counts(want), s"filter: $clue")

      val limited = mpt.filter(p).limit(k).collect().toSeq
      assert(limited.size == math.min(k, want.size), s"limit: $clue")
      val wantCounts = counts(want)
      assert(counts(limited).forall { case (r, n) => wantCounts.getOrElse(r, 0) >= n }, s"limit: $clue")

      val top = mpt.filter(p).orderBy(o).limit(k).collect().map(r => orderKey(r.getAs[Any](c))).toSeq
      if (ScanMetrics.forTable(dir).exists(_.topKPushed)) topKPushed += 1
      val wantTop = source.filter(p).orderBy(o).limit(k).collect().map(r => orderKey(r.getAs[Any](c))).toSeq
      assert(top == wantTop, s"order by: $clue")
    }
    assert(topKPushed > 0, "no ORDER BY LIMIT reached the mpt scan")
  }
}
