package repro.jobs

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession

import repro.spatial.SpatialData
import repro.spark.{DistributedDaskMeans, MllibLloyd, Simplify}
import repro.tables._

/** Shared plumbing for the spark-submit entrypoints: session creation and
  * `key=value` argument parsing (e.g. `n=100000 ks=100,1000 out=/tmp/t4`).
  */
object JobSpark {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.ui.enabled", "false")
      .getOrCreate()

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
  def main(args: Array[String]): Unit = {
    val conf = JobSpark.parseArgs(args)
    val spark = JobSpark.session("table-iv")
    val n = conf.getOrElse("n", "100000").toLong
    val ks = conf.getOrElse("ks", "100,1000,5000").split(",").map(_.trim.toInt).toSeq
    val iters = conf.getOrElse("maxIters", "10").toInt
    val rows = TableIV.run(spark, SpatialData.lowDimDatasets, n, ks, iters)
    JobSpark.emit(TableIV.render(rows), conf)
    spark.stop()
  }
}

/** Table V: runtime on the high-dimensional embedded datasets. */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val conf = JobSpark.parseArgs(args)
    val spark = JobSpark.session("table-v")
    val n = conf.getOrElse("n", "10000").toLong
    val ks = conf.getOrElse("ks", "50,200,500").split(",").map(_.trim.toInt).toSeq
    val iters = conf.getOrElse("maxIters", "8").toInt
    val rows = TableIV.run(spark, SpatialData.highDimDatasets, n, ks, iters)
    JobSpark.emit(TableIV.render(rows), conf)
    spark.stop()
  }
}

/** Table VI: memory-estimation accuracy sweeps. */
object TableVIJob {
  def main(args: Array[String]): Unit = {
    val conf = JobSpark.parseArgs(args)
    val spark = JobSpark.session("table-vi")
    val n = conf.getOrElse("n", "100000").toLong
    val rows = TableVI.run(spark, n)
    JobSpark.emit(TableVI.render(rows), conf)
    spark.stop()
  }
}

/** Table VII: memory-tunable index under device budgets. */
object TableVIIJob {
  def main(args: Array[String]): Unit = {
    val conf = JobSpark.parseArgs(args)
    val spark = JobSpark.session("table-vii")
    val n = conf.getOrElse("n", "100000").toLong
    val ks = conf.getOrElse("ks", "100,1000,5000").split(",").map(_.trim.toInt).toSeq
    val budgets = conf.getOrElse("budgetsMb", "1.5,2.0,3.0").split(",").map(_.trim.toDouble).toSeq
    val rows = TableVII.run(spark, n = n, ks = ks, budgetsMb = budgets)
    JobSpark.emit(TableVII.render(rows), conf)
    spark.stop()
  }
}

/** Table VIII (+ Fig. 11/14 rows): runtime-prediction accuracy. */
object TableVIIIJob {
  def main(args: Array[String]): Unit = {
    val conf = JobSpark.parseArgs(args)
    val spark = JobSpark.session("table-viii")
    val count = conf.getOrElse("samples", "200").toInt
    val q = conf.getOrElse("q", "10").toInt
    JobSpark.emit(TableVIII.render(TableVIII.run(spark, count, q)), conf)
    spark.stop()
  }
}

/** Dataset simplification (the paper's Fig. 1 use case) and the
  * distributed operator vs MLlib KMeans.
  */
object SimplifyJob {
  def main(args: Array[String]): Unit = {
    val conf = JobSpark.parseArgs(args)
    val spark = JobSpark.session("simplify")
    val n = conf.getOrElse("n", "100000").toLong
    val k = conf.getOrElse("k", "1000").toInt
    val dataset = conf.getOrElse("dataset", "Argo-PC")
    val df = SpatialData.dataset(spark, dataset, n).persist()

    val init = DistributedDaskMeans.initialCentroids(df, k, 42L)
    val t0 = System.nanoTime()
    val fitted = DistributedDaskMeans.fit(df, k, maxIters = 10, init = Some(init))
    val daskMs = (System.nanoTime() - t0) / 1e6
    val daskSse = DistributedDaskMeans.sse(df, fitted.centroids)
    DistributedDaskMeans.cleanup(fitted)

    val t1 = System.nanoTime()
    val ml = MllibLloyd.fit(df, init, maxIters = 10)
    val mlMs = (System.nanoTime() - t1) / 1e6
    val mlSse = DistributedDaskMeans.sse(df, ml)

    val simplified = Simplify.simplify(df, math.min(k, 200), maxIters = 5)
    val text =
      f"dataset=$dataset n=$n k=$k\n" +
        f"distributed Dask-means: ${daskMs / 1000}%.2f s, ${fitted.iterations} iters, SSE=$daskSse%.1f, prunedVectors=${fitted.batchPrunedVectors}\n" +
        f"MLlib KMeans          : ${mlMs / 1000}%.2f s, SSE=$mlSse%.1f\n" +
        f"simplified rows       : ${simplified.count()}\n"
    JobSpark.emit(text, conf)
    spark.stop()
  }
}
