package repro.bench

import repro.SparkSpec
import repro.core.Vec
import repro.spark.{DistributedDaskMeans, MllibLloyd}
import repro.spatial.SpatialData

/** The Spark-lift sanity bench: the per-partition Dask-means operator vs
  * MLlib KMeans on the same data (the paper's future-work direction,
  * realised here per the repro plan).
  */
class DistributedBench extends SparkSpec {

  test("distributed Dask-means vs MLlib KMeans at n=200k, k=500") {
    val df = SpatialData.dataset(spark, "Argo-PC", 200_000L).persist()
    df.count()

    val init = DistributedDaskMeans.initialCentroids(df, 500, 42L)
    val t0 = System.nanoTime()
    val fitted = DistributedDaskMeans.fit(df, 500, maxIters = 10, numPartitions = 8, init = Some(init))
    val daskSec = (System.nanoTime() - t0) / 1e9
    val daskSse = DistributedDaskMeans.sse(df, fitted.centroids)
    DistributedDaskMeans.cleanup(fitted)

    val t1 = System.nanoTime()
    val ml = MllibLloyd.fit(df, init, maxIters = 10)
    val mlSec = (System.nanoTime() - t1) / 1e9
    val mlSse = DistributedDaskMeans.sse(df, ml)

    val text =
      f"""n=200000 k=500 maxIters=10, both from the same initial centroids
         |distributed Dask-means: ${daskSec}%8.2f s  iters=${fitted.iterations}  SSE=${daskSse}%14.1f  pruned=${fitted.batchPrunedVectors}
         |MLlib KMeans (Lloyd)  : ${mlSec}%8.2f s  SSE=${mlSse}%14.1f
         |""".stripMargin
    BenchOut.write("distributed.txt", text)

    df.unpersist()
    // Same init, same Lloyd trajectory: the same centroids and objective.
    fitted.centroids.indices.foreach { j =>
      assert(Vec.dist(fitted.centroids(j), ml(j)) < 1e-9, s"centroid $j")
    }
    assert(math.abs(daskSse - mlSse) <= 1e-9 * daskSse, s"dask=$daskSse mllib=$mlSse")
  }
}
