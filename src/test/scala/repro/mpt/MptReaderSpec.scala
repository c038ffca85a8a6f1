package repro.mpt

import java.nio.file.Files

import scala.collection.mutable

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.read.PartitionReader
import org.apache.spark.sql.sources
import org.apache.spark.sql.types._
import org.apache.spark.sql.vectorized.ColumnarBatch
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.PropHelper.forAllSeeded
import repro.SparkSpec
import repro.core.{BoundaryHeap, FilterTranslator, PExprEval}
import repro.meta.Scalar
import repro.meta.Scalar._

/** The columnar reader against the row-level semantics it must keep: the
  * rows it emits under a pushed filter are exactly those [[PExprEval]]
  * accepts, its row view emits what its batches hold, and Spark plans mpt
  * scans on the columnar path.
  */
class MptReaderSpec extends SparkSpec {
  import AdversarialRows._

  private lazy val (dir, source, manifest) = {
    val d = Files.createTempDirectory("mpt-reader").toFile.getAbsolutePath
    val rs = table(300).apply(Gen.Parameters.default, Seed(7)).get
    val m = MptWriter.write(frame(spark, rs, 3), d, 5, MptWriter.Layout.Random(11))
    (d, rs, m)
  }

  private def partitions(scanId: Long, best: MptPartitionEntry => Option[repro.meta.Scalar] = _ => None) =
    manifest.partitions.map(e => MptInputPartition(dir, e.file, e.id, best(e), scanId))

  /** Ids of the rows in every batch a columnar reader emits. */
  private def batchIds(r: PartitionReader[ColumnarBatch]): Seq[Long] = {
    val ids = mutable.ArrayBuffer.empty[Long]
    while (r.next()) {
      val b = r.get()
      (0 until b.numRows).foreach(i => ids += b.column(0).getLong(i))
    }
    r.close()
    ids.toSeq
  }

  private val cols: Seq[(String, Gen[Any])] = Seq(
    "id" -> Gen.choose(0L, 300L), "l" -> longs, "i" -> ints, "d" -> doubles, "s" -> strings,
    "dt" -> dates.map(d => java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(d.toLong))),
    "b" -> booleans, "z" -> longs,
    "l" -> doubles) // a double literal against a long column

  private val leaf: Gen[sources.Filter] = Gen.oneOf(cols).flatMap { case (c, lit) =>
    Gen.oneOf(
      lit.map(sources.EqualTo(c, _)), lit.map(sources.GreaterThan(c, _)),
      lit.map(sources.GreaterThanOrEqual(c, _)), lit.map(sources.LessThan(c, _)),
      lit.map(sources.LessThanOrEqual(c, _)),
      Gen.listOfN(3, lit).map(vs => sources.In(c, vs.toArray)),
      Gen.const(sources.IsNull(c)), Gen.const(sources.IsNotNull(c)),
      strings.map(sources.StringStartsWith("s", _)), strings.map(sources.StringEndsWith("s", _)),
      strings.map(sources.StringContains("s", _)))
  }

  private def filter(depth: Int): Gen[sources.Filter] =
    if (depth == 0) leaf
    else Gen.frequency(
      3 -> leaf,
      1 -> Gen.zip(filter(depth - 1), filter(depth - 1)).map { case (a, b) => sources.And(a, b) },
      1 -> Gen.zip(filter(depth - 1), filter(depth - 1)).map { case (a, b) => sources.Or(a, b) },
      1 -> filter(depth - 1).map(sources.Not(_)))

  test("property: the reader emits exactly the rows PExprEval accepts under a pushed filter") {
    forAllSeeded(filter(3), n = 300) { f =>
      val pred = FilterTranslator.translate(f).getOrElse(fail(s"not translated: $f"))
      val expected = source.filter(r => PExprEval.passes(pred, lookup(r))).map(_.getLong(0))
      val factory = new MptReaderFactory(manifest.schema, manifest.schema, Some(pred), None)
      val got = partitions(-1L).flatMap(p => batchIds(factory.createColumnarReader(p)))
      assert(got.sorted == expected.sorted, s"filter $f")
      // The row view emits the same rows.
      val viaRows = partitions(-1L).flatMap { p =>
        val r = factory.createReader(p)
        val ids = Iterator.continually(r.next()).takeWhile(identity).map(_ => r.get().getLong(0)).toList
        r.close()
        ids
      }
      assert(viaRows == got)
    }
  }

  test("a top-k scan emits the same rows through createReader and createColumnarReader") {
    // Every order-column type in both directions: doubles with ±0.0, NaN and
    // ±Inf, strings with supplementary characters, dates, and ints.
    val inputs = ("l", true) +: (for (c <- Seq("d", "s", "dt", "i"); desc <- Seq(true, false)) yield (c, desc))
    for ((c, desc) <- inputs) {
      val o = manifest.schema.fieldIndex(c)
      val dt = manifest.schema(c).dataType
      def orderValue(r: InternalRow): Option[Scalar] = Option.when(!r.isNullAt(o))(dt match {
        case LongType    => LongV(r.getLong(o))
        case IntegerType => LongV(r.getInt(o).toLong)
        case DoubleType  => DoubleV(r.getDouble(o))
        case StringType  => StringV(r.getUTF8String(o).toString)
        case DateType    => DateV(r.getInt(o))
        case other       => fail(s"unexpected $other")
      })
      /** (id, order value) of every row one reader per partition emits, under a fresh boundary. */
      def run(read: (MptReaderFactory, MptInputPartition) => Seq[(Long, Option[Scalar])]) = {
        val scanId = ScanMetrics.register(new ScanMetrics.Stats(dir, new BoundaryHeap(5, desc, null)))
        val factory = new MptReaderFactory(manifest.schema, manifest.schema, None, Some(TopKPlan(c, desc, 5)))
        partitions(scanId, e => if (desc) e.stats(o).max else e.stats(o).min).flatMap(read(factory, _))
      }
      val viaBatches = run { (f, p) =>
        val r = f.createColumnarReader(p)
        val out = mutable.ArrayBuffer.empty[(Long, Option[Scalar])]
        while (r.next()) {
          val b = r.get()
          (0 until b.numRows).foreach { i => val row = b.getRow(i); out += ((row.getLong(0), orderValue(row))) }
        }
        r.close()
        out.toSeq
      }
      val viaRows = run { (f, p) =>
        val r = f.createReader(p)
        val out = mutable.ArrayBuffer.empty[(Long, Option[Scalar])]
        while (r.next()) out += ((r.get().getLong(0), orderValue(r.get())))
        r.close()
        out.toSeq
      }
      // Double bits, so that NaN equals itself and -0.0 differs from 0.0.
      def bits(rows: Seq[(Long, Option[Scalar])]) =
        rows.map { case (id, v) => (id, v.map { case DoubleV(x) => java.lang.Double.doubleToLongBits(x); case x => x }) }
      assert(bits(viaBatches) == bits(viaRows), s"$c desc=$desc")
      assert(viaBatches.size < source.size, s"the boundary should suppress rows ($c desc=$desc)")
      // The emitted rows hold the true top 5 order values (NULLS LAST).
      def top5(vs: Seq[Option[Scalar]]): Seq[Option[Scalar]] = {
        val (some, none) = vs.partition(_.isDefined)
        (some.sortWith((a, b) => Scalar.compare(a.get, b.get).exists(x => if (desc) x > 0 else x < 0)) ++ none).take(5)
      }
      val want = top5(source.map(lookup(_)(c)))
      val got = top5(viaBatches.map(_._2))
      assert(got.size == want.size && got.zip(want).forall {
        case (Some(a), Some(b)) => Scalar.compare(a, b).contains(0)
        case (a, b)             => a == b
      }, s"$c desc=$desc: got $got, want $want")
    }
  }

  test("Spark reads mpt scans through the columnar path") {
    val df = spark.read.format("repro.mpt.MptTableProvider").load(dir).filter("l > 0")
    df.collect()
    assert(df.queryExecution.executedPlan.toString.contains("ColumnarToRow"),
           df.queryExecution.executedPlan.toString)
  }
}
