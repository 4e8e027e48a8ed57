package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.Vec
import repro.spark.{DistributedDaskMeans, MllibLloyd}
import repro.spatial.SpatialData

/** The Spark lift (the paper's future work, §VII): the per-partition
  * Dask-means operator vs MLlib KMeans on Argo-PC at n = 200k, k = 500,
  * 10 iterations over 8 partitions, both started from the same initial
  * centroids, so both follow Lloyd's trajectory.
  */
object Distributed {

  private val N = 200_000L
  private val K = 500
  private val MaxIters = 10

  /** `maxCentroidGap`: the largest distance between the two sides'
    * centroids of the same id.
    */
  final case class Result(
      daskSec: Double,
      mllibSec: Double,
      daskSse: Double,
      mllibSse: Double,
      prunedVectors: Long,
      iterations: Int,
      maxCentroidGap: Double,
  )

  def run(spark: SparkSession): Result = {
    val df = SpatialData.dataset(spark, "Argo-PC", N).persist()
    try {
      df.count()
      val init = DistributedDaskMeans.initialCentroids(df, K, 42L)
      val t0 = System.nanoTime()
      val fitted = DistributedDaskMeans.fit(df, K, MaxIters, numPartitions = 8, init = Some(init))
      val daskSec = (System.nanoTime() - t0) / 1e9
      val daskSse =
        try DistributedDaskMeans.sse(df, fitted.centroids)
        finally DistributedDaskMeans.cleanup(fitted)

      val t1 = System.nanoTime()
      val ml = MllibLloyd.fit(df, init, MaxIters)
      val mlSec = (System.nanoTime() - t1) / 1e9
      val gap = fitted.centroids.indices.map(j => Vec.dist(fitted.centroids(j), ml(j))).max
      Result(daskSec, mlSec, daskSse, DistributedDaskMeans.sse(df, ml), fitted.batchPrunedVectors,
        fitted.iterations, gap)
    } finally df.unpersist()
  }

  def render(r: Result): String =
    f"""n=$N k=$K maxIters=$MaxIters, both from the same initial centroids
       |distributed Dask-means: ${r.daskSec}%8.2f s  iters=${r.iterations}  SSE=${r.daskSse}%14.1f  pruned=${r.prunedVectors}
       |MLlib KMeans (Lloyd)  : ${r.mllibSec}%8.2f s  SSE=${r.mllibSse}%14.1f
       |""".stripMargin
}
