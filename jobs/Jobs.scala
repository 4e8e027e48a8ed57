package repro.jobs

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession

import repro.tables._

/** Shared plumbing for the spark-submit entrypoints. Each table runs at its
  * one setting; the only argument is `out=<path>`, a file that receives the
  * printed text.
  */
object JobSpark {

  /** Opens the session, prints the table's text (and writes it to `out`
    * when given), and stops the session even if the table throws.
    */
  def run(name: String, args: Array[String])(table: SparkSession => String): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try emit(table(spark), parseArgs(args))
    finally spark.stop()
  }

  def parseArgs(args: Array[String]): Map[String, String] =
    args.filter(_.contains("=")).map { a => val Array(k, v) = a.split("=", 2); k -> v }.toMap

  def emit(text: String, conf: Map[String, String]): Unit = {
    println(text)
    conf.get("out").foreach { p =>
      val path = Paths.get(p)
      if (path.getParent != null) Files.createDirectories(path.getParent)
      Files.writeString(path, text)
    }
  }
}

/** Table IV: runtime of the ten algorithms over the six low-d datasets. */
object TableIVJob {
  def main(args: Array[String]): Unit = JobSpark.run("table-iv", args)(s => TableIV.render(TableIV.lowDim(s)))
}

/** Table V: runtime on the high-dimensional embedded datasets. */
object TableVJob {
  def main(args: Array[String]): Unit = JobSpark.run("table-v", args)(s => TableIV.render(TableIV.highDim(s)))
}

/** Table VI: memory-estimation accuracy sweeps. */
object TableVIJob {
  def main(args: Array[String]): Unit = JobSpark.run("table-vi", args)(s => TableVI.render(TableVI.run(s)))
}

/** Table VII: memory-tunable index under device budgets. */
object TableVIIJob {
  def main(args: Array[String]): Unit = JobSpark.run("table-vii", args)(s => TableVII.render(TableVII.run(s)))
}

/** Table VIII (+ Fig. 11/14 rows): runtime-prediction accuracy. */
object TableVIIIJob {
  def main(args: Array[String]): Unit = JobSpark.run("table-viii", args)(s => TableVIII.render(TableVIII.run(s)))
}

/** The distributed operator vs MLlib KMeans (the Spark lift). */
object DistributedJob {
  def main(args: Array[String]): Unit =
    JobSpark.run("distributed", args)(s => Distributed.render(Distributed.run(s)))
}
