include Ppnpart_obs.Json
