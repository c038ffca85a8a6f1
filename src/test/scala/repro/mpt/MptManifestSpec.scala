package repro.mpt

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import repro.SparkSpec

/** Table writes replace a table whole, and tables of an older format are
  * refused when they are loaded, not in the middle of a query.
  */
class MptManifestSpec extends SparkSpec {

  private def tmpDir(tag: String): String =
    Files.createTempDirectory(s"mpt-$tag").toFile.getAbsolutePath

  private def readMpt(dir: String) = spark.read.format("repro.mpt.MptTableProvider").load(dir)

  test("rewriting a table leaves only the new manifest and its data files") {
    val dir = tmpDir("rewrite")
    MptWriter.write(spark.range(1000).toDF("id"), dir, 10, MptWriter.Layout.SortedBy("id"))
    // A data file of the older TSV format, left behind in the directory.
    Files.write(new File(dir, "part-00003.tsv").toPath, "1\n".getBytes(StandardCharsets.UTF_8))
    val second = spark.range(300).selectExpr("id * 7 + 5 AS id")
    val m = MptWriter.write(second, dir, 4, MptWriter.Layout.SortedBy("id"))
    assert(m.partitions.size == 4)
    val files = new File(dir).list().toSet
    assert(files == m.partitions.map(_.file).toSet + MptManifest.FileName, files)
    assert(readMpt(dir).collect().map(_.getLong(0)).sorted.toSeq ==
           second.collect().map(_.getLong(0)).sorted.toSeq)
  }

  test("an mpt-v1 table fails at load time and asks for a rewrite") {
    val dir = tmpDir("v1")
    Files.write(new File(dir, MptManifest.FileName).toPath,
      "mpt-v1\ncol\tid\tlong\npart\t0\tpart-00000.tsv\t2\t1\t2\t0\n".getBytes(StandardCharsets.UTF_8))
    Files.write(new File(dir, "part-00000.tsv").toPath, "1\n2\n".getBytes(StandardCharsets.UTF_8))
    val e = intercept[IllegalArgumentException](MptManifest.read(dir))
    assert(e.getMessage.contains("mpt-v1") && e.getMessage.contains("rewrite"), e.getMessage)
    intercept[IllegalArgumentException](readMpt(dir))
  }

  test("an mpt-v2 table, whose string zone maps were in UTF-16 order, fails at load time and asks for a rewrite") {
    val dir = tmpDir("v2")
    MptWriter.write(spark.range(10).toDF("id"), dir, 2, MptWriter.Layout.SortedBy("id"))
    val manifest = new File(dir, MptManifest.FileName).toPath
    val lines = new String(Files.readAllBytes(manifest), StandardCharsets.UTF_8).split('\n')
    assert(lines.head == MptManifest.Version && MptManifest.Version == "mpt-v3")
    Files.write(manifest, ("mpt-v2" +: lines.tail).mkString("\n").getBytes(StandardCharsets.UTF_8))
    val e = intercept[IllegalArgumentException](MptManifest.read(dir))
    assert(e.getMessage.contains("mpt-v2") && e.getMessage.contains("rewrite"), e.getMessage)
    intercept[IllegalArgumentException](readMpt(dir))
  }
}
