package repro.bench

import repro.SparkSpec
import repro.tables.Distributed

/** The Spark-lift sanity bench: the per-partition Dask-means operator vs
  * MLlib KMeans on the same data (the paper's future-work direction,
  * realised here per the repro plan).
  */
class DistributedBench extends SparkSpec {

  test("distributed Dask-means vs MLlib KMeans at n=200k, k=500") {
    val r = Distributed.run(spark)
    BenchOut.write("distributed.txt", Distributed.render(r))
    // Same init, same Lloyd trajectory: the same centroids and objective.
    assert(r.maxCentroidGap < 1e-9, s"centroid gap ${r.maxCentroidGap}")
    assert(math.abs(r.daskSse - r.mllibSse) <= 1e-9 * r.daskSse, s"dask=${r.daskSse} mllib=${r.mllibSse}")
  }
}
